package yield

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/xrand"
)

// testApp is a fixed mid-density application; seeded so every test run
// sees the same footprint.
func testApp(tb testing.TB) *bism.App {
	tb.Helper()
	return bism.RandomApp(4, 6, 0.5, rand.New(rand.NewSource(17)))
}

// collect runs r over spec and returns results indexed by die,
// verifying emit fires exactly once per die.
func collect(tb testing.TB, r Runner, spec Spec) []DieResult {
	tb.Helper()
	out := make([]DieResult, spec.Dies)
	seen := make([]bool, spec.Dies)
	// emit runs on worker goroutines: Errorf only (Fatalf would Goexit a
	// worker and deadlock the runner's WaitGroup).
	err := r.Run(context.Background(), spec, func(dr DieResult) {
		if dr.Die < 0 || dr.Die >= spec.Dies {
			tb.Errorf("%s emitted die %d outside [0,%d)", r.Name(), dr.Die, spec.Dies)
			return
		}
		if seen[dr.Die] {
			tb.Errorf("%s emitted die %d twice", r.Name(), dr.Die)
		}
		seen[dr.Die] = true
		out[dr.Die] = dr
	})
	if err != nil {
		tb.Fatalf("%s: %v", r.Name(), err)
	}
	if tb.Failed() {
		tb.FailNow()
	}
	for die, ok := range seen {
		if !ok {
			tb.Fatalf("%s never emitted die %d", r.Name(), die)
		}
	}
	return out
}

func sameMapping(a, b *bism.Mapping) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || reflect.DeepEqual(*a, *b)
}

// TestLaneMatchesScalarBitForBit is the tentpole contract: the lane
// path equals the scalar oracle die for die — mapping, stats, fast
// flag — across die counts that are not multiples of 64 (tail-lane
// masking), all-defective and zero-defect planes, every mapping scheme,
// both serial and parallel execution, and schedules whose progressive
// draws end on the chip's last row (a tall application with K·appR = N)
// or stop after one candidate (a chip that fits only one). Two dense,
// tall sweeps fill lane records, so demoted dies also take the redraw
// from their seeds: one whose schedule spans more crosspoints than
// defect.MaxRecord, and FuzzLaneMatchesScalar's seed of that kind.
func TestLaneMatchesScalarBitForBit(t *testing.T) {
	app := testApp(t)
	tall := bism.RandomApp(6, 4, 0.5, rand.New(rand.NewSource(23)))
	layouts := []struct {
		name string
		app  *bism.App
		chip int
	}{
		{"4x6 on 48", app, 48},
		{"6x4 on 48, K·appR = N", tall, 48},
		{"4x6 on 9, one candidate", app, 9},
	}
	schemes := []bism.Mapper{bism.Greedy{}, bism.Blind{}, bism.Hybrid{}}
	densities := []float64{0, 0.03, 1.0}
	dieCounts := []int{1, 63, 64, 65, 130}
	for _, lay := range layouts {
		for _, scheme := range schemes {
			for _, density := range densities {
				for _, dies := range dieCounts {
					for _, par := range []int{1, 4} {
						requireLaneMatchesScalar(t, lay.name, Spec{
							App: lay.app, Scheme: scheme, ChipSize: lay.chip,
							Params: defect.UniformCrosspoint(density),
							Dies:   dies, Seed: 99, MaxAttempts: 50, Parallel: par,
						})
					}
				}
			}
		}
	}
	// 8·6 rows of 96 crosspoints, 4 608 draws, before a lane demotes.
	requireLaneMatchesScalar(t, "6x4 on 96, records full", Spec{
		App: tall, Scheme: bism.Greedy{}, ChipSize: 96,
		Params: defect.UniformCrosspoint(1.0),
		Dies:   70, Seed: 99, MaxAttempts: 5, Parallel: 2,
	})
	requireLaneMatchesScalar(t, "fuzz seed, records full", fuzzSpec(denseTallSeed()))
}

// requireLaneMatchesScalar runs spec through LaneRunner and ScalarRunner
// and fails on the first die whose outcome differs.
func requireLaneMatchesScalar(t *testing.T, name string, spec Spec) {
	t.Helper()
	lane := collect(t, LaneRunner{}, spec)
	scalar := collect(t, ScalarRunner{}, spec)
	for die := range lane {
		l, s := lane[die], scalar[die]
		if l.Err != nil || s.Err != nil {
			t.Fatalf("%s %s d=%v dies=%d par=%d die %d: unexpected errors %v / %v",
				name, spec.Scheme.Name(), spec.Params, spec.Dies, spec.Parallel, die, l.Err, s.Err)
		}
		if l.Fast != s.Fast || !reflect.DeepEqual(l.Stats, s.Stats) || !sameMapping(l.Mapping, s.Mapping) {
			t.Fatalf("%s %s d=%v dies=%d par=%d die %d: lane %+v != scalar %+v",
				name, spec.Scheme.Name(), spec.Params, spec.Dies, spec.Parallel, die, l, s)
		}
	}
}

// fuzzInput is one FuzzLaneMatchesScalar input: an application of
// 1–8 × 1–8 lines whose crosspoints close with density closure/255, a
// chip from the application's size up to 24, a crosspoint density in
// 1/256 steps from 0 to 1, 1–130 dies, a scheme and 1–3 workers.
type fuzzInput struct {
	appR, appC, closure, chip uint8
	density                   uint16
	dies                      uint8
	seed                      int64
	scheme, par               uint8
}

// fuzzSpec maps a fuzz input onto a runnable spec.
func fuzzSpec(in fuzzInput) Spec {
	r, c := 1+int(in.appR%8), 1+int(in.appC%8)
	lo := max(r, c)
	return Spec{
		App:         bism.RandomApp(r, c, float64(in.closure)/255, rand.New(rand.NewSource(in.seed))),
		Scheme:      []bism.Mapper{bism.Greedy{}, bism.Blind{}, bism.Hybrid{}}[in.scheme%3],
		ChipSize:    lo + int(in.chip)%(25-lo),
		Params:      defect.UniformCrosspoint(float64(in.density%257) / 256),
		Dies:        1 + int(in.dies)%130,
		Seed:        in.seed,
		MaxAttempts: 50,
		Parallel:    1 + int(in.par%3),
	}
}

// denseTallSeed is a fuzz input whose lanes fill their records: a fully
// used 8×2 application on a 24-chip, whose three candidates span the
// whole die, at 30% density. 128 of its 130 dies demote, and 4 of
// those outgrow their records (counted when the seed was chosen).
func denseTallSeed() fuzzInput {
	return fuzzInput{appR: 7, appC: 1, closure: 255, chip: 16, density: 77, dies: 129, seed: 5, par: 2}
}

// FuzzLaneMatchesScalar holds LaneRunner to ScalarRunner die by die on
// fuzzed sweeps. Its seeds are TestLaneMatchesScalarBitForBit's 270
// cases, with 24, the fuzzed maximum, for its 48-chip and 3 workers for
// its 4, and the dense, tall sweep that fills lane records.
func FuzzLaneMatchesScalar(f *testing.F) {
	add := func(in fuzzInput) {
		f.Add(in.appR, in.appC, in.closure, in.chip, in.density, in.dies, in.seed, in.scheme, in.par)
	}
	// 4×6 and 6×4 on 24 and 4×6 on 9: fuzzSpec puts these shapes on a
	// chip of 6 + chip%19.
	layouts := []struct{ appR, appC, chip uint8 }{{3, 5, 18}, {5, 3, 18}, {3, 5, 3}}
	for _, lay := range layouts {
		for scheme := range uint8(3) {
			for _, density := range []uint16{0, 8, 256} { // 0, 3%, 1
				for _, dies := range []uint8{0, 62, 63, 64, 129} { // 1, 63, 64, 65, 130
					for _, par := range []uint8{0, 2} { // 1 and 3 workers
						add(fuzzInput{appR: lay.appR, appC: lay.appC, closure: 128, chip: lay.chip,
							density: density, dies: dies, seed: 99, scheme: scheme, par: par})
					}
				}
			}
		}
	}
	add(denseTallSeed())
	f.Fuzz(func(t *testing.T, appR, appC, closure, chip uint8, density uint16, dies uint8, seed int64, scheme, par uint8) {
		requireLaneMatchesScalar(t, "fuzz", fuzzSpec(fuzzInput{appR, appC, closure, chip, density, dies, seed, scheme, par}))
	})
}

// TestZeroDefectAllFast checks the fast path's best case: defect-free
// dies all pass the first candidate with exactly one BIST session.
func TestZeroDefectAllFast(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: 48,
		Dies: 130, Seed: 1, MaxAttempts: 10, Parallel: 3,
	}
	for _, dr := range collect(t, LaneRunner{}, spec) {
		if !dr.Fast || !dr.Stats.Success || dr.Stats.Configs != 1 || dr.Stats.BISTCalls != 1 {
			t.Fatalf("defect-free die %d: %+v, want fast single-probe success", dr.Die, dr)
		}
		if dr.Mapping == nil {
			t.Fatalf("defect-free die %d: nil mapping", dr.Die)
		}
	}
}

// TestFastMappingsValidate spot-checks that fast-path mappings really
// place the application on the die they were reported for.
func TestFastMappingsValidate(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: 48,
		Params: defect.UniformCrosspoint(0.05),
		Dies:   64, Seed: 12, MaxAttempts: 50, Parallel: 1,
	}
	chip := defect.NewMap(48, 48)
	src, rng := xrand.New()
	for _, dr := range collect(t, LaneRunner{}, spec) {
		if dr.Stats.Success {
			src.Seed(xrand.SubSeed(spec.Seed, dr.Die))
			defect.RandomInto(chip, spec.Params, rng)
			if !bism.Validate(bism.NewChip(chip), app, dr.Mapping) {
				t.Fatalf("die %d: reported mapping fails validation (fast=%v)", dr.Die, dr.Fast)
			}
		}
	}
}

// TestSpecValidation checks unrunnable specs are rejected up front.
func TestSpecValidation(t *testing.T) {
	app := testApp(t)
	good := Spec{App: app, Scheme: bism.Greedy{}, ChipSize: 48, Dies: 1, MaxAttempts: 1}
	bad := []Spec{
		{},
		{App: app, ChipSize: 48, Dies: 1, MaxAttempts: 1},
		{App: app, Scheme: bism.Greedy{}, ChipSize: 3, Dies: 1, MaxAttempts: 1},
		{App: app, Scheme: bism.Greedy{}, ChipSize: 48, Dies: -1, MaxAttempts: 1},
		{App: app, Scheme: bism.Greedy{}, ChipSize: 48, Dies: 1},
	}
	for _, r := range []Runner{LaneRunner{}, ScalarRunner{}} {
		if err := r.Run(context.Background(), good, func(DieResult) {}); err != nil {
			t.Fatalf("%s rejected a valid spec: %v", r.Name(), err)
		}
		for i, spec := range bad {
			if err := r.Run(context.Background(), spec, func(DieResult) {}); err == nil {
				t.Fatalf("%s accepted bad spec %d", r.Name(), i)
			}
		}
	}
}

// TestCancellationStopsAtGroupBoundary checks a canceled sweep returns
// the context error without emitting the remaining dies.
func TestCancellationStopsAtGroupBoundary(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: bism.Greedy{}, ChipSize: 64,
		Params: defect.UniformCrosspoint(0.02),
		Dies:   50_000, Seed: 5, MaxAttempts: 50, Parallel: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	err := LaneRunner{}.Run(ctx, spec, func(DieResult) {
		if emitted.Add(1) == 3 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if n := emitted.Load(); n == 0 || n >= int64(spec.Dies) {
		t.Fatalf("canceled sweep emitted %d of %d dies", n, spec.Dies)
	}
}

// panicMapper stands in for a buggy scheme: demotion must surface the
// panic as per-die errors, not kill the worker goroutine.
type panicMapper struct{}

func (panicMapper) Name() string { return "panic" }
func (panicMapper) Map(*bism.Chip, *bism.App, int, *rand.Rand) (*bism.Mapping, bism.Stats) {
	panic("boom")
}

func TestMapperPanicBecomesDieErrors(t *testing.T) {
	app := testApp(t)
	spec := Spec{
		App: app, Scheme: panicMapper{}, ChipSize: 48,
		Params: defect.UniformCrosspoint(1.0), // all dies demote
		Dies:   70, Seed: 8, MaxAttempts: 5, Parallel: 2,
	}
	for _, r := range []Runner{LaneRunner{}, ScalarRunner{}} {
		count := 0
		err := r.Run(context.Background(), spec, func(dr DieResult) {
			count++
			if dr.Err == nil {
				t.Errorf("%s die %d: expected an error from the panicking mapper", r.Name(), dr.Die)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if count != spec.Dies {
			t.Fatalf("%s emitted %d of %d dies", r.Name(), count, spec.Dies)
		}
	}
}

// TestOneBISTPerConfigurationOnLanes checks fast and demoted dies alike
// report one BIST session per configuration, for every scheme: fast
// dies per probed candidate, demoted dies through their mapper too.
func TestOneBISTPerConfigurationOnLanes(t *testing.T) {
	app := testApp(t)
	for _, scheme := range []bism.Mapper{bism.Blind{}, bism.Greedy{}, bism.Hybrid{}} {
		fast, demoted, repaired := 0, 0, 0
		for _, density := range []float64{0.03, 0.15} {
			spec := Spec{
				App: app, Scheme: scheme, ChipSize: 24,
				Params: defect.UniformCrosspoint(density),
				Dies:   200, Seed: 4, MaxAttempts: 30, Parallel: 2,
			}
			for _, dr := range collect(t, LaneRunner{}, spec) {
				if dr.Stats.BISTCalls != dr.Stats.Configs {
					t.Fatalf("%s d=%v die %d (fast=%v): %+v", scheme.Name(), density, dr.Die, dr.Fast, dr.Stats)
				}
				if dr.Fast {
					fast++
				} else {
					demoted++
				}
				if dr.Stats.BISDCalls > 0 {
					repaired++
				}
			}
		}
		if fast == 0 || demoted == 0 || (repaired == 0) != (scheme == bism.Blind{}) {
			t.Fatalf("%s: %d fast, %d demoted and %d repaired dies", scheme.Name(), fast, demoted, repaired)
		}
	}
}
