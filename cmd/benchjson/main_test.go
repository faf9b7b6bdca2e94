package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nanoxbar/internal/benchreport"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEmitGolden locks the emit pipeline: raw `go test -bench` text in,
// benchreport JSON out. Volatile fields (timestamp, toolchain, host) are
// normalized before comparing against the golden file.
func TestEmitGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "raw_bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(string(raw), "0.5s")
	rep.GeneratedAt = "GENERATED_AT"
	rep.GoVersion = "GO_VERSION"
	rep.GOOS, rep.GOARCH = "GOOS", "GOARCH"
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "want_report.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("emitted report drifted from golden (run `go test ./cmd/benchjson -update` if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Sanity on the parsed content itself, independent of formatting.
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	sub := rep.Benchmarks[3]
	if sub.Name != "BenchmarkEngineCacheContention/single-lock" {
		t.Fatalf("sub-benchmark name %q lost its suite path", sub.Name)
	}
}

// capture runs runCompare with its output redirected to a temp file and
// returns (exit code, printed text).
func capture(t *testing.T, oldPath, newPath string, tol float64) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	code := runCompare(f, oldPath, newPath, tol)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func td(name string) string { return filepath.Join("testdata", name) }

// TestCompareGateTripsOnRegression proves the CI gate fails a
// deliberately slowed benchmark: the fixture's BenchmarkSynthesizeCached
// is 6x the baseline.
func TestCompareGateTripsOnRegression(t *testing.T) {
	code, out := capture(t, td("baseline.json"), td("new_regressed.json"), 0.25)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkSynthesizeCached") || !strings.Contains(out, "FAIL") {
		t.Fatalf("gate output lacks the offender:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkEval8x8") {
		t.Fatalf("unregressed benchmark reported as regression:\n%s", out)
	}
}

func TestCompareGatePassesWithinTolerance(t *testing.T) {
	// new_ok drifts the HTTP round trip +22%, inside the 25% tolerance.
	code, out := capture(t, td("baseline.json"), td("new_ok.json"), 0.25)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "OK: 3 benchmarks compared") {
		t.Fatalf("gate output:\n%s", out)
	}
	// The same drift fails a tighter gate.
	if code, _ := capture(t, td("baseline.json"), td("new_ok.json"), 0.10); code != 1 {
		t.Fatal("22% drift passed a 10% gate")
	}
}

// TestCompareGateTripsOnAllocRegression proves the gate fails a
// benchmark whose allocs/op rose past the slack at an unchanged ns/op:
// a synthetic regression of one allocation over it on the baseline's
// BenchmarkV2RoundTrip.
func TestCompareGateTripsOnAllocRegression(t *testing.T) {
	base, err := benchreport.Load(td("baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	withAllocs := func(rep benchreport.Report, v2 int64) string {
		rep.Benchmarks = append([]benchreport.Benchmark(nil), rep.Benchmarks...)
		for i := range rep.Benchmarks {
			n := int64(10)
			if rep.Benchmarks[i].Name == "BenchmarkV2RoundTrip" {
				n = v2
			}
			rep.Benchmarks[i].AllocsPerOp = &n
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := benchreport.WriteFile(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := withAllocs(base, 150)
	if code, out := capture(t, oldPath, withAllocs(base, 153), 0.25); code != 0 {
		t.Fatalf("+3 allocs/op failed the gate: exit %d\n%s", code, out)
	}
	code, out := capture(t, oldPath, withAllocs(base, 155), 0.25)
	if code != 1 || !strings.Contains(out, "ALLOCATION REGRESSIONS") || !strings.Contains(out, "BenchmarkV2RoundTrip") {
		t.Fatalf("+5 allocs/op passed the gate: exit %d\n%s", code, out)
	}
	if strings.Contains(out, "BenchmarkEval8x8") {
		t.Fatalf("unregressed benchmark reported:\n%s", out)
	}
}

func TestCompareGateMissingBenchmark(t *testing.T) {
	// A new report that silently dropped a baseline benchmark fails.
	var rep benchreport.Report
	rep.Benchmarks = []benchreport.Benchmark{{Pkg: "nanoxbar/internal/lattice", Name: "BenchmarkEval8x8", Iterations: 1, NsPerOp: 2100}}
	raw, _ := json.Marshal(rep)
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, td("baseline.json"), path, 0.25)
	if code != 1 || !strings.Contains(out, "MISSING") {
		t.Fatalf("missing benchmarks not failed: exit %d\n%s", code, out)
	}
}

func TestCompareGateBadInputs(t *testing.T) {
	if code, _ := capture(t, td("baseline.json"), "", 0.25); code != 2 {
		t.Fatal("missing -against not a usage error")
	}
	if code, _ := capture(t, td("baseline.json"), td("nope.json"), 0.25); code != 2 {
		t.Fatal("unreadable new report not a usage error")
	}
}
