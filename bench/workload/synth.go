package workload

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nanoxbar/bench/check"
	"nanoxbar/bench/trace"
	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/core"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/dreduce"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/pcircuit"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xbar2t"
	"nanoxbar/pkg/nanoxbar"
)

// synthRandom is how many seeded random functions of each size join the
// benchmark suite. Six-variable functions dominate because their cold
// synthesis time is tight across draws (9–12 ms on the reference
// machine), so the seed changes the inputs but barely the cost; random
// 7-variable functions vary 2x between draws (50–100 ms) and 8-variable
// ones 3x (3–11 s), which would make a run's result depend on its seed.
// The suite's maj7, rnd7, dred7 and 9sym cover that regime with fixed
// functions.
var synthRandom = []struct{ vars, count int }{{4, 4}, {5, 4}, {6, 32}}

type synthInput struct {
	name  string
	f     truthtab.TT
	suite bool
}

// synthInputs is the function set: the 24 benchfn suite functions, then
// the seeded random ones, each depending on all its variables.
func synthInputs(seed int64, short bool) []synthInput {
	var in []synthInput
	for _, s := range benchfn.Suite() {
		if short && s.N() > 5 {
			continue
		}
		in = append(in, synthInput{name: s.Name, f: s.F, suite: true})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, r := range synthRandom {
		count := r.count
		if short {
			count = 1
		}
		for k := 0; k < count; k++ {
			f := truthtab.FromFunc(r.vars, func(uint64) bool { return rng.Intn(2) == 1 })
			for len(f.Support()) < r.vars {
				f = truthtab.FromFunc(r.vars, func(uint64) bool { return rng.Intn(2) == 1 })
			}
			in = append(in, synthInput{name: fmt.Sprintf("rnd%d_%d", r.vars, k), f: f})
		}
	}
	return in
}

// shape is what must not change between two syntheses of one function.
type shape struct {
	diodeR, diodeC, fetR, fetC, latR, latC int
	method                                 string
}

func shapeOf(c *nanoxbar.TechComparison) shape {
	return shape{c.Diode.Rows, c.Diode.Cols, c.FET.Rows, c.FET.Cols, c.Lattice.Rows, c.Lattice.Cols, c.Lattice.Method}
}

// synthRun is the state of the synth-cold loop: per-function latencies
// and the checked shape of each function's first result.
type synthRun struct {
	cfg    Config
	inputs []synthInput
	rep    *Report
	shapes []*shape
	area   int
}

// runSynthCold: closed loop, one caller. Every call is an uncached
// nanoxbar.CompareTechnologies on a distinct function, so the synthesis
// layers do all the work and the engine and transport none.
func runSynthCold(ctx context.Context, cfg Config) (*Report, error) {
	s := &synthRun{cfg: cfg, rep: newReport(cfg.Spans != nil)}
	var setupS float64
	var err error
	s.inputs, setupS, err = timedSetup(func() ([]synthInput, error) {
		in := synthInputs(cfg.Seed, cfg.Short)
		// Warm every synthesis path (covers, dual grid, P-circuit and
		// D-reducibility searches) on the small suite functions, so lazy
		// initialization finishes before timing.
		for _, x := range in {
			if x.suite && x.f.NumVars() <= 5 {
				if _, err := nanoxbar.CompareTechnologies(ctx, x.f, nanoxbar.DefaultOptions()); err != nil {
					return nil, err
				}
			}
		}
		return in, nil
	}, func([]synthInput) {})
	if err != nil {
		return nil, err
	}
	s.shapes = make([]*shape, len(s.inputs))
	if cfg.Spans == nil {
		m := s.measure(ctx, cfg.budget(1), nil)
		m["setup_s"] = setupS
		m["area_cells"] = float64(s.area)
		m["max_rss_mb"] = maxRSSMB()
		for k, v := range m {
			s.rep.set(k, v)
		}
		return s.rep, nil
	}
	untraced := s.measure(ctx, cfg.budget(0.3), nil)
	before, word0 := readMem(), lattice.CounterSnapshot().WordBlocks
	traced := s.measure(ctx, cfg.budget(0.3), cfg.Spans)
	after, word1 := readMem(), lattice.CounterSnapshot().WordBlocks
	fns := float64(traced["_calls"])
	s.rep.set("core.allocs_per_fn", ratio(float64(after.Mallocs-before.Mallocs), fns))
	s.rep.set("core.alloc_mb_per_fn", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), fns))
	s.rep.set("lattice.word_blocks_per_fn", ratio(float64(word1-word0), fns))
	s.rep.setOverhead(untraced, traced)
	s.replay(ctx, cfg.budget(0.4))
	return s.rep, nil
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// measure runs whole passes over the inputs until budget is spent (at
// least two) and returns the end-to-end metrics, the wall-clock rate
// "wall.ops_per_s", and the call count "_calls" for the traced run's
// bookkeeping. Each function's CPU time is its median over the passes;
// with 64 functions the nearest-rank p99 is the slowest function's. The
// first result of each function is checked; later ones must repeat its
// shape. With spans, every call is one span.
func (s *synthRun) measure(ctx context.Context, budget time.Duration, spans *trace.Recorder) map[string]float64 {
	opts := nanoxbar.DefaultOptions()
	lat := make([][]float64, len(s.inputs))
	var cpuPasses, wallPasses []float64
	g0 := readGo()
	calls := 0
	for end := time.Now().Add(budget); len(cpuPasses) < 2 || time.Now().Before(end); {
		var pass time.Duration
		wall := time.Now()
		for i, in := range s.inputs {
			start := cpuTime()
			sp := spans.Begin(0, "nanoxbar.CompareTechnologies")
			c, err := nanoxbar.CompareTechnologies(ctx, in.f, opts)
			spans.End(sp)
			d := cpuOp(start)
			pass += d
			calls++
			lat[i] = append(lat[i], ms(d))
			s.rep.Attempted++
			if err != nil {
				s.rep.fail("%s: %v", in.name, err)
				continue
			}
			s.checkResult(i, c)
		}
		cpuPasses = append(cpuPasses, pass.Seconds())
		wallPasses = append(wallPasses, time.Since(wall).Seconds())
	}
	s.rep.setGo(g0, readGo(), calls)
	perFn := make([]float64, len(lat))
	for i, l := range lat {
		perFn[i] = median(l)
	}
	fns := float64(len(s.inputs))
	return map[string]float64{
		"ops_per_cpu_s":  fns / median(cpuPasses),
		"cpu_p50_ms":     quantile(perFn, 0.50),
		"cpu_p99_ms":     quantile(perFn, 0.99),
		"cpu_geomean_ms": geomean(perFn),
		"wall.ops_per_s": fns / median(wallPasses),
		"_calls":         float64(calls),
	}
}

// checkResult checks a function's first comparison with the
// independent checkers and records its shape; a later comparison must
// repeat that shape exactly.
func (s *synthRun) checkResult(i int, c *nanoxbar.TechComparison) {
	in := s.inputs[i]
	if s.cfg.Corrupt != nil {
		s.cfg.Corrupt(c)
	}
	if s.shapes[i] != nil {
		if got := shapeOf(c); got != *s.shapes[i] {
			s.rep.fail("%s: result changed between passes: %+v then %+v", in.name, *s.shapes[i], got)
		}
		return
	}
	for _, im := range []*core.Implementation{c.Diode, c.FET, c.Lattice} {
		if err := check.Implementation(im, in.f); err != nil {
			s.rep.fail("%s: %v", in.name, err)
			return
		}
	}
	sh := shapeOf(c)
	s.shapes[i] = &sh
	if in.suite {
		s.area += c.Diode.Area() + c.FET.Area() + c.Lattice.Area()
	}
}

// Phase span names of the replay, and the per-layer metric each one
// feeds.
var synthPhases = []struct{ span, metric string }{
	{"latsynth.Covers", "latsynth.covers_ms"},
	{"latsynth.BuildDualGrid", "latsynth.dual_grid_ms"},
	{"lattice.ImplementsFast", "lattice.verify_ms"},
	{"latsynth.PostReduce", "latsynth.post_reduce_ms"},
	{"xbar2t", "xbar2t.build_ms"},
	{"pcircuit.Best", "pcircuit.best_ms"},
	{"dreduce.Synthesize", "dreduce.synth_ms"},
}

// replay times the phases of core.SynthesizeCtx from outside: for each
// function it makes the same public calls, in the same order, that
// core makes for the diode, FET and four-terminal syntheses of
// CompareTechnologies, each under its own span, and checks that the
// replay arrives at core's method, rows and cols. Each function's
// replay follows one timed call of core itself. Phase times are summed
// over a pass; core.unexplained_ms is core's pass time minus them.
func (s *synthRun) replay(ctx context.Context, budget time.Duration) {
	opts := core.DefaultOptions()
	perPass := make(map[string][]float64)
	var pcTries, pcWins, drTries, drWins int
	rec := s.cfg.Spans
	for end, pass := time.Now().Add(budget), 0; pass < 1 || time.Now().Before(end); pass++ {
		if ctx.Err() != nil {
			break
		}
		first := len(rec.Spans())
		for i, in := range s.inputs {
			sp := rec.Begin(0, "core")
			_, err := core.CompareTechnologiesCtx(ctx, in.f, opts)
			rec.End(sp)
			if err != nil {
				s.rep.fail("%s: %v", in.name, err)
			}
			root := rec.Begin(0, "replay")
			got, pc, dr, err := replayOne(rec, root, in.f, opts)
			rec.End(root)
			if pass > 0 {
				continue
			}
			if err != nil {
				s.rep.fail("%s: replay: %v", in.name, err)
				continue
			}
			pcTries, pcWins = pcTries+pc.tries, pcWins+pc.wins
			drTries, drWins = drTries+dr.tries, drWins+dr.wins
			if want := s.shapes[i]; want != nil && got != *want {
				s.rep.fail("%s: replay gives %+v, core gave %+v", in.name, got, *want)
			}
		}
		self := trace.SelfTimes(rec.Spans()[first:])
		var phases time.Duration
		for _, p := range synthPhases {
			perPass[p.metric] = append(perPass[p.metric], ms(self[p.span]))
			phases += self[p.span]
		}
		perPass["core.unexplained_ms"] = append(perPass["core.unexplained_ms"], ms(self["core"]-phases))
	}
	for k, v := range perPass {
		s.rep.set(k, median(v))
	}
	s.rep.set("pcircuit.win_ratio", ratio(float64(pcWins), float64(pcTries)))
	s.rep.set("dreduce.win_ratio", ratio(float64(drWins), float64(drTries)))
}

type winCount struct{ tries, wins int }

// replayOne mirrors core.SynthesizeCtx for the diode, FET and
// four-terminal syntheses, in CompareTechnologies order, and returns the
// shape core would report plus the P-circuit and D-reducibility tries
// and wins (a win is a strictly smaller lattice than the best so far).
func replayOne(rec *trace.Recorder, root int, f truthtab.TT, opts core.Options) (sh shape, pc, dr winCount, err error) {
	phase := func(name string, fn func()) {
		sp := rec.Begin(root, name)
		fn()
		rec.End(sp)
	}
	var fc, dc cube.Cover
	// Diode: core computes the covers, then the diode array.
	phase("latsynth.Covers", func() { fc, dc, _ = latsynth.Covers(f, opts.Synth) })
	var diode *xbar2t.DiodeArray
	phase("xbar2t", func() { diode = xbar2t.NewDiodeArray(fc) })
	sh.diodeR, sh.diodeC = diode.Rows(), diode.Cols()
	// FET: the covers again, then the array and its formula size.
	phase("latsynth.Covers", func() { fc, dc, _ = latsynth.Covers(f, opts.Synth) })
	var sizes xbar2t.Sizes
	phase("xbar2t", func() {
		xbar2t.NewFETArray(fc, dc)
		sizes = xbar2t.FormulaSizes(fc, dc)
	})
	sh.fetR, sh.fetC = sizes.FETRows, sizes.FETCols
	// Four-terminal: core computes covers it does not use for this
	// technology, then the dual method recomputes them.
	phase("latsynth.Covers", func() { latsynth.Covers(f, opts.Synth) })
	best, err := replayDual(phase, f, opts.Synth)
	if err != nil {
		return sh, pc, dr, err
	}
	method := "dual"
	if sup := len(f.Support()); opts.TryPCircuit && sup >= 2 && sup <= 8 {
		pc.tries++
		var res *pcircuit.Result
		phase("pcircuit.Best", func() {
			res, err = pcircuit.Best(f, pcircuit.Options{Synth: opts.Synth, Mode: pcircuit.WithIntersection})
		})
		if err == nil && res.Area() < best.Area() {
			best, method = res.Lattice, "pcircuit"
			pc.wins++
		}
	}
	if opts.TryDReduce && !f.IsZero() {
		dr.tries++
		var res *dreduce.Result
		phase("dreduce.Synthesize", func() { res, err = dreduce.Synthesize(f, opts.Synth) })
		if err == nil && res.Area() < best.Area() {
			best, method = res.Lattice, "dreduce"
			dr.wins++
		}
	}
	sh.latR, sh.latC, sh.method = best.R, best.C, method
	return sh, pc, dr, nil
}

// replayDual mirrors latsynth.DualMethod phase by phase.
func replayDual(phase func(string, func()), f truthtab.TT, o latsynth.Options) (*lattice.Lattice, error) {
	if f.IsZero() || f.IsOne() {
		return lattice.Constant(f.IsOne()), nil
	}
	var fc, dc cube.Cover
	phase("latsynth.Covers", func() { fc, dc, _ = latsynth.Covers(f, o) })
	var l *lattice.Lattice
	var err error
	phase("latsynth.BuildDualGrid", func() { l, err = latsynth.BuildDualGrid(fc, dc, o.Cells) })
	if err != nil {
		return nil, err
	}
	ok := false
	phase("lattice.ImplementsFast", func() { ok = l.ImplementsFast(f) })
	if !ok {
		return nil, fmt.Errorf("dual-method lattice does not implement f")
	}
	// latsynth's documented default post-reduction area limit.
	limit := o.PostReduceMaxArea
	if limit <= 0 {
		limit = 1200
	}
	if o.PostReduce && l.Area() <= limit {
		phase("latsynth.PostReduce", func() { l = latsynth.PostReduce(l, f) })
	}
	return l, nil
}
