package benchreport

import (
	"reflect"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: nanoxbar/internal/lattice
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEval8x8-8         	  500000	      2100 ns/op	       0 B/op	       0 allocs/op
BenchmarkFunction6Var-8    	    1200	    998000 ns/op	   12288 B/op	       6 allocs/op	     64.0 evals/op
PASS
pkg: nanoxbar/internal/engine
BenchmarkSynthesizeCached-8	 3000000	       400.5 ns/op	      16 B/op	       1 allocs/op
ok  	nanoxbar/internal/engine	1.2s
`

func TestParseGoBench(t *testing.T) {
	var rep Report
	ParseGoBench(sampleBenchOutput, &rep)
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu %q", rep.CPU)
	}
	b := rep.Benchmarks[0]
	if b.Pkg != "nanoxbar/internal/lattice" || b.Name != "BenchmarkEval8x8" || b.NsPerOp != 2100 || b.Iterations != 500000 {
		t.Fatalf("benchmark 0: %+v", b)
	}
	if b.ID() != "nanoxbar/internal/lattice.BenchmarkEval8x8" {
		t.Fatalf("id %q", b.ID())
	}
	b = rep.Benchmarks[1]
	if b.Metrics["evals/op"] != 64.0 {
		t.Fatalf("custom metric not parsed: %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 12288 || b.AllocsPerOp == nil || *b.AllocsPerOp != 6 {
		t.Fatalf("benchmem fields: %+v", b)
	}
	b = rep.Benchmarks[2]
	if b.Pkg != "nanoxbar/internal/engine" || b.NsPerOp != 400.5 {
		t.Fatalf("benchmark 2: %+v", b)
	}
}

// mkReport builds a report with the given name→ns pairs in one package.
func mkReport(ns map[string]float64) Report {
	var rep Report
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Pkg: "p", Name: name, Iterations: 1, NsPerOp: v})
	}
	return rep
}

func TestCompareDetectsRegression(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkC": 100})
	new := mkReport(map[string]float64{"BenchmarkA": 120, "BenchmarkB": 200, "BenchmarkC": 80})
	cmp := Compare(old, new, 0.25)
	if cmp.OK() {
		t.Fatal("2x regression passed the gate")
	}
	if len(cmp.Regressions) != 1 || cmp.Regressions[0].ID != "p.BenchmarkB" {
		t.Fatalf("regressions %+v, want only p.BenchmarkB", cmp.Regressions)
	}
	if cmp.Regressions[0].Ratio != 2.0 {
		t.Fatalf("ratio %v, want 2.0", cmp.Regressions[0].Ratio)
	}
	if cmp.Compared != 3 {
		t.Fatalf("compared %d, want 3", cmp.Compared)
	}
	out := cmp.Format()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "p.BenchmarkB") {
		t.Fatalf("format lacks verdict or offender:\n%s", out)
	}
}

func TestCompareWithinToleranceOK(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkA": 100})
	new := mkReport(map[string]float64{"BenchmarkA": 124})
	cmp := Compare(old, new, 0.25)
	if !cmp.OK() || len(cmp.Regressions) != 0 {
		t.Fatalf("24%% drift failed a 25%% gate: %+v", cmp)
	}
	if !strings.Contains(cmp.Format(), "OK") {
		t.Fatalf("format lacks OK verdict:\n%s", cmp.Format())
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 100})
	new := mkReport(map[string]float64{"BenchmarkA": 100})
	cmp := Compare(old, new, 0.25)
	if cmp.OK() {
		t.Fatal("missing benchmark passed the gate")
	}
	if len(cmp.Missing) != 1 || cmp.Missing[0] != "p.BenchmarkGone" {
		t.Fatalf("missing %+v", cmp.Missing)
	}
}

func TestCompareZeroBaselineIgnored(t *testing.T) {
	old := mkReport(map[string]float64{"BenchmarkZero": 0})
	new := mkReport(map[string]float64{"BenchmarkZero": 1000})
	if cmp := Compare(old, new, 0.25); !cmp.OK() {
		t.Fatalf("zero baseline produced a regression: %+v", cmp)
	}
}

// allocReport builds a report with the given name→allocs/op pairs, all
// at the same ns/op; a negative count leaves the row without an
// allocation figure.
func allocReport(allocs map[string]int64) Report {
	var rep Report
	for name, n := range allocs {
		b := Benchmark{Pkg: "p", Name: name, Iterations: 1, NsPerOp: 100}
		if n >= 0 {
			b.AllocsPerOp = &n
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep
}

func TestCompareGatesAllocations(t *testing.T) {
	old := allocReport(map[string]int64{"A": 10, "B": 1000, "C": 10, "D": 1000, "E": -1, "F": 10, "G": 50})
	new := allocReport(map[string]int64{"A": 14, "B": 1020, "C": 15, "D": 1021, "E": 500, "F": -1, "G": 20})
	cmp := Compare(old, new, 0.25)
	// A (+4) and B (+2%) sit at the slack, C (+5) and D (+2.1%) pass it,
	// E and F lack a figure on one side, and G fell.
	want := []AllocDelta{{ID: "p.C", OldAllocs: 10, NewAllocs: 15}, {ID: "p.D", OldAllocs: 1000, NewAllocs: 1021}}
	if cmp.OK() || !reflect.DeepEqual(cmp.AllocRegressions, want) || len(cmp.Regressions) != 0 {
		t.Fatalf("allocation regressions %+v (ns/op %+v), want %+v", cmp.AllocRegressions, cmp.Regressions, want)
	}
	out := cmp.Format()
	if !strings.Contains(out, "ALLOCATION REGRESSIONS") || !strings.Contains(out, "p.D") || !strings.Contains(out, "FAIL") {
		t.Fatalf("format lacks the allocation offenders:\n%s", out)
	}
}
