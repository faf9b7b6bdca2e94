// Package workload holds the benchmark's four workloads. Each builds its
// inputs from a seed, sets the system up several times to time set-up,
// measures for a fixed wall-clock budget, checks every output with the
// benchmark's own checkers (package check), and reports the metrics of
// report.go.
package workload

import (
	"context"
	"fmt"
	"time"

	"nanoxbar/bench/trace"
	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/truthtab"
)

// Names lists the workloads in the order `-workload all` runs them.
var Names = []string{"synth-cold", "yield-sweep", "serve-hot", "serve-churn"}

// Config is one run.
type Config struct {
	Seed int64
	// Seconds is the measured wall-clock budget. Set-up and output
	// checks run outside it.
	Seconds float64
	// Spans, when set, selects the traced run and receives its spans:
	// the workload's loop runs untraced and traced for a share of
	// Seconds each, and the rest of the budget times the layers; the
	// report carries the per-layer metrics.
	Spans *trace.Recorder
	// Short shrinks inputs to smoke-test size.
	Short bool
	// Corrupt, when set, is handed every output before it is checked
	// and may damage it: the smoke test's proof that a wrong output
	// fails the run.
	Corrupt func(any)
}

func (c Config) budget(share float64) time.Duration {
	return time.Duration(c.Seconds * share * float64(time.Second))
}

// Run executes one workload.
func Run(ctx context.Context, name string, cfg Config) (*Report, error) {
	switch name {
	case "synth-cold":
		return runSynthCold(ctx, cfg)
	case "yield-sweep":
		return runYieldSweep(ctx, cfg)
	case "serve-hot":
		return runServe(ctx, hotProfile, cfg)
	case "serve-churn":
		return runServe(ctx, churnProfile, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Names)
}

// suiteFunc resolves a benchmark suite function by name.
func suiteFunc(name string) (truthtab.TT, error) {
	s, ok := benchfn.ByName(name)
	if !ok {
		return truthtab.TT{}, fmt.Errorf("no suite function %q", name)
	}
	return s.F, nil
}
