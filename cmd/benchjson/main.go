// Command benchjson tracks the repository's performance trajectory. It
// has two modes:
//
// Emit (default): run the hot-path benchmark suites (lattice
// evaluation, lattice synthesis, QM minimization, serving engine, HTTP
// round trip) and write a machine-readable JSON report
// (internal/benchreport schema):
//
//	benchjson [-out BENCH_lattice.json] [-bench regex] [-benchtime 0.5s] [-pkgs p1,p2,...]
//
// Compare: diff a fresh report against a committed baseline and fail on
// hot-path regressions — the CI perf-regression gate:
//
//	benchjson -compare BENCH_lattice.json -against bench_ci.json [-tolerance 0.25]
//
// A benchmark regresses when its ns/op exceeds baseline×(1+tolerance),
// and baseline benchmarks missing from the new report fail the gate
// too. Exit status 1 on a failed gate.
//
// CI emits with -benchtime 20ms (steady-state but fast; single-
// iteration -benchtime 1x timings are warmup-dominated and useless for
// a ns/op gate) and gates with a loose tolerance that absorbs
// cross-machine noise; release numbers are regenerated with the
// default benchtime and committed as BENCH_lattice.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"nanoxbar/internal/benchreport"
)

// defaultPkgs are the suites covering the synthesis/serving hot paths
// (the P-circuit search in internal/pcircuit is most of a cold
// four-terminal synthesis), including the client/server round trip
// through the v2 HTTP protocol (internal/httpapi) so serving overhead
// is tracked alongside raw engine numbers, the fault-tolerance path
// (defect-map generation, BISM repair, transient Monte Carlo) gated
// since the bit-parallel rewrite, and the telemetry substrate
// (histogram observation sits inside the per-die loop, so its cost is
// gated like any hot path).
const defaultPkgs = "./internal/lattice,./internal/latsynth,./internal/qm,./internal/pcircuit,./internal/engine,./internal/httpapi,./internal/defect,./internal/bism,./internal/redundancy,./internal/telemetry,./internal/yield"

func main() {
	out := flag.String("out", "BENCH_lattice.json", "output JSON path (- for stdout)")
	benchRe := flag.String("bench", ".", "benchmark name regex passed to go test -bench")
	benchtime := flag.String("benchtime", "0.5s", "go test -benchtime value")
	pkgs := flag.String("pkgs", defaultPkgs, "comma-separated packages to benchmark")
	compare := flag.String("compare", "", "baseline report path; switches to compare mode")
	against := flag.String("against", "", "new report path to gate against the baseline (compare mode)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed ns/op growth fraction before a regression fails the gate")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(os.Stdout, *compare, *against, *tolerance))
	}
	runEmit(*out, *benchRe, *benchtime, *pkgs)
}

// runCompare executes the perf-regression gate and returns the process
// exit code.
func runCompare(w *os.File, oldPath, newPath string, tolerance float64) int {
	if newPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -compare requires -against new.json")
		return 2
	}
	old, err := benchreport.Load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	new, err := benchreport.Load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cmp := benchreport.Compare(old, new, tolerance)
	fmt.Fprintf(w, "benchjson: %s (baseline) vs %s\n%s", oldPath, newPath, cmp.Format())
	if !cmp.OK() {
		return 1
	}
	return 0
}

// runEmit runs the benchmark suites and writes the report.
func runEmit(out, benchRe, benchtime, pkgs string) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem", "-benchtime", benchtime}
	args = append(args, strings.Split(pkgs, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n%s", strings.Join(args, " "), err, raw)
		os.Exit(1)
	}

	rep := buildReport(string(raw), benchtime)
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines in go test output:\n%s", raw)
		os.Exit(1)
	}
	if err := benchreport.WriteFile(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if out != "-" {
		fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), out)
	}
}

// buildReport wraps the parsed `go test -bench` output in a stamped
// report.
func buildReport(raw, benchtime string) benchreport.Report {
	rep := benchreport.Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Benchtime:   benchtime,
	}
	benchreport.ParseGoBench(raw, &rep)
	return rep
}
