package engine

import (
	"context"
	"math/rand"
	"testing"

	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

// Serving-path baselines: how much the cache saves on the shared
// synthesis step, and how much the worker pool saves on per-chip
// mapping fan-out. Future PRs optimizing the serving path compare
// against these numbers.

func BenchmarkSynthesizeUncached(b *testing.B) {
	spec := benchfn.NineSym()
	opts := core.DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(spec.F, core.FourTerminal, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeCached(b *testing.B) {
	e := New(Config{Workers: 4, CacheSize: 64})
	defer e.Close()
	spec := benchfn.NineSym()
	opts := core.DefaultOptions()
	if _, _, err := e.synthesize(spec.F, core.FourTerminal, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.synthesize(spec.F, core.FourTerminal, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// perChipBatch builds one batch of per-chip mapping requests for the
// same function with distinct seeds — the daemon's hot path.
func perChipBatch(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Kind:     KindMap,
			Function: FunctionSpec{Name: "maj3"},
			Density:  0.05,
			Seed:     int64(i),
		}
	}
	return reqs
}

func BenchmarkMapBatchPooled(b *testing.B) {
	e := New(Config{CacheSize: 64}) // default worker count
	defer e.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range e.submitBatch(perChipBatch(64)) {
			if !r.Ok() {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkMapOnce is the CI-gated per-die number: draw one 64×64 die
// at 2% density into pooled scratch and place maj3 on it with greedy
// recovery — the unit of work a yield sweep repeats per chip.
func BenchmarkMapOnce(b *testing.B) {
	e := New(Config{Workers: 1, CacheSize: 16})
	defer e.Close()
	spec := benchfn.Majority(3)
	imp, _, err := e.synthesize(spec.F, core.FourTerminal, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	src, rng := xrand.New()
	chip := defect.NewMap(64, 64)
	params := defect.UniformCrosspoint(0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		defect.RandomInto(chip, params, rng)
		if _, err := e.mapOnce(imp, chip, bism.Greedy{}, defaultMaxAttempts, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldSweep is the CI-gated end-to-end number: one KindYield
// request sweeping 64 dies of a 64×64 chip at 2% density through the
// full engine path (cache hit, per-worker die scratch, aggregation).
func BenchmarkYieldSweep(b *testing.B) {
	e := New(Config{CacheSize: 64}) // default worker count
	defer e.Close()
	req := Request{
		Kind:     KindYield,
		Function: FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Chips:    64,
		ChipSize: 64,
		Seed:     42,
	}
	if r := e.DoCtx(context.Background(), req); !r.Ok() {
		b.Fatal(r.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := e.DoCtx(context.Background(), req); !r.Ok() {
			b.Fatal(r.Err)
		}
	}
}

func BenchmarkMapBatchSerial(b *testing.B) {
	// The same 64-chip workload without the engine: one synthesis,
	// then sequential MapWithRecovery calls on the caller goroutine.
	spec := benchfn.Majority(3)
	opts := core.DefaultOptions()
	imp, err := core.Synthesize(spec.F, core.FourTerminal, opts)
	if err != nil {
		b.Fatal(err)
	}
	app := imp.ToApp()
	n := 2 * max(app.R, app.C)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 64; c++ {
			rng := rand.New(rand.NewSource(int64(c)))
			chip := defect.Random(n, n, defect.UniformCrosspoint(0.05), rng)
			if _, err := core.MapWithRecovery(imp, chip, bism.Greedy{}, defaultMaxAttempts, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}
