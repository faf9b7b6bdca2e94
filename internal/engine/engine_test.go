package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/yield"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Workers: 4, CacheSize: 64})
	t.Cleanup(e.Close)
	return e
}

// submitBatch runs the requests through SubmitStream and returns their
// results in submission order.
func (e *Engine) submitBatch(reqs []Request) []Result {
	results := make([]Result, len(reqs))
	e.SubmitStream(context.Background(), reqs, func(i int, r Result) { results[i] = r }, nil)
	return results
}

// synthesize implements f on tech through the cache, reporting a hit.
func (e *Engine) synthesize(f truthtab.TT, tech core.Technology, opts core.Options) (*core.Implementation, bool, error) {
	imp, _, hit, err := e.synthKeyed(context.Background(), f, tech, opts)
	return imp, hit, err
}

func TestSynthesizeMatchesUncached(t *testing.T) {
	e := newTestEngine(t)
	opts := core.DefaultOptions()
	for _, spec := range []benchfn.Spec{benchfn.Majority(3), benchfn.Parity(4), benchfn.PaperExample()} {
		for _, tech := range []core.Technology{core.Diode, core.FET, core.FourTerminal} {
			want, err := core.Synthesize(spec.F, tech, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, tech, err)
			}
			got, hit, err := e.synthesize(spec.F, tech, opts)
			if err != nil || hit {
				t.Fatalf("%s/%v first call: hit=%v err=%v", spec.Name, tech, hit, err)
			}
			if got.Rows != want.Rows || got.Cols != want.Cols || got.Method != want.Method {
				t.Fatalf("%s/%v: cached %dx%d %s, uncached %dx%d %s",
					spec.Name, tech, got.Rows, got.Cols, got.Method, want.Rows, want.Cols, want.Method)
			}
			if !got.Verify(spec.F) {
				t.Fatalf("%s/%v: cached implementation does not compute the function", spec.Name, tech)
			}
			again, hit, err := e.synthesize(spec.F, tech, opts)
			if err != nil || !hit || again != got {
				t.Fatalf("%s/%v second call: hit=%v same=%v err=%v", spec.Name, tech, hit, again == got, err)
			}
		}
	}
}

// TestConcurrentCacheCorrectness hammers the engine cache from many
// goroutines (run under -race in CI) and asserts both the hit rate and
// result equality with uncached core.Synthesize.
func TestConcurrentCacheCorrectness(t *testing.T) {
	e := newTestEngine(t)
	opts := core.DefaultOptions()
	specs := []benchfn.Spec{
		benchfn.Majority(3), benchfn.Parity(4), benchfn.Threshold(4, 2), benchfn.PaperExample(),
	}
	want := make([]*core.Implementation, len(specs))
	for i, s := range specs {
		var err error
		if want[i], err = core.Synthesize(s.F, core.FourTerminal, opts); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 16, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(specs)
				imp, _, err := e.synthesize(specs[i].F, core.FourTerminal, opts)
				if err != nil {
					t.Errorf("synthesize %s: %v", specs[i].Name, err)
					return
				}
				if imp.Rows != want[i].Rows || imp.Cols != want[i].Cols {
					t.Errorf("%s: got %dx%d, want %dx%d", specs[i].Name, imp.Rows, imp.Cols, want[i].Rows, want[i].Cols)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	total := st.CacheHits + st.CacheMisses
	if total != goroutines*rounds {
		t.Fatalf("cache saw %d lookups, want %d", total, goroutines*rounds)
	}
	if st.CacheMisses != uint64(len(specs)) {
		t.Fatalf("misses=%d, want %d (one per distinct function)", st.CacheMisses, len(specs))
	}
	if st.SynthCalls != uint64(len(specs)) {
		t.Fatalf("synth calls=%d, want %d", st.SynthCalls, len(specs))
	}
}

// TestBatchSingleMissDeterministic is the acceptance scenario: a batch
// of 100 per-chip mapping requests for the same function completes with
// exactly one underlying core.Synthesize call, and a fixed seed gives
// identical results across runs.
func TestBatchSingleMissDeterministic(t *testing.T) {
	const n = 100
	makeBatch := func() []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Kind:     KindMap,
				Function: FunctionSpec{Name: "maj3"},
				Density:  0.05,
				Seed:     int64(1000 + i),
			}
		}
		return reqs
	}

	e1 := newTestEngine(t)
	res1 := e1.submitBatch(makeBatch())
	st := e1.Stats()
	if st.SynthCalls != 1 {
		t.Fatalf("batch of %d same-function requests ran %d syntheses, want 1", n, st.SynthCalls)
	}
	if st.CacheMisses != 1 || st.CacheHits != n-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", st.CacheHits, st.CacheMisses, n-1)
	}
	for i, r := range res1 {
		if !r.Ok() {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		if r.Map == nil {
			t.Fatalf("request %d has no map result", i)
		}
	}

	e2 := newTestEngine(t)
	res2 := e2.submitBatch(makeBatch())
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("fixed seeds gave different results across engines")
	}
}

func TestMapAgainstSuppliedChip(t *testing.T) {
	e := newTestEngine(t)
	// Build a chip with a known defect map, round-trip through the
	// wire spec, and check the returned mapping validates.
	rng := rand.New(rand.NewSource(5))
	chip := defect.Random(16, 16, defect.UniformCrosspoint(0.04), rng)
	spec := FromMap(chip)
	back, err := spec.ToMap()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != chip.String() {
		t.Fatal("defect map wire round trip changed the map")
	}
	res := e.DoCtx(context.Background(), Request{
		Kind:     KindMap,
		Function: FunctionSpec{Expr: "x1x2 + x1'x2'"},
		Scheme:   "hybrid",
		Chip:     &spec,
		Seed:     7,
	})
	if !res.Ok() || res.Map == nil {
		t.Fatalf("map request failed: %+v", res)
	}
	if res.Map.ChipSize != 16 {
		t.Fatalf("chip size %d, want 16", res.Map.ChipSize)
	}
	if res.Map.Success {
		f, err := FunctionSpec{Expr: "x1x2 + x1'x2'"}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		imp, _, err := e.synthesize(f, core.FourTerminal, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Map.Rows) != imp.ToApp().R || len(res.Map.Cols) != imp.ToApp().C {
			t.Fatalf("mapping shape %dx%d does not match app %dx%d",
				len(res.Map.Rows), len(res.Map.Cols), imp.ToApp().R, imp.ToApp().C)
		}
	}
}

func TestCompareUsesSharedCache(t *testing.T) {
	e := newTestEngine(t)
	res := e.DoCtx(context.Background(), Request{Kind: KindCompare, Function: FunctionSpec{Name: "maj3"}})
	if !res.Ok() || res.Compare == nil {
		t.Fatalf("compare failed: %+v", res)
	}
	if res.Compare.Diode.Area == 0 || res.Compare.FET.Area == 0 || res.Compare.Lattice.Area == 0 {
		t.Fatalf("zero area in %+v", res.Compare)
	}
	// A follow-up synthesize on each technology must hit.
	for _, tech := range []string{"diode", "fet", "lattice"} {
		r := e.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}, Tech: tech})
		if !r.Ok() || !r.Synthesis.CacheHit {
			t.Fatalf("synthesize after compare on %s: %+v", tech, r)
		}
	}
}

func TestYieldSweep(t *testing.T) {
	e := newTestEngine(t)
	req := Request{
		Kind:     KindYield,
		Function: FunctionSpec{Name: "maj3"},
		Density:  0.03,
		Chips:    40,
		ChipSize: 20,
		Seed:     99,
	}
	res := e.DoCtx(context.Background(), req)
	if !res.Ok() || res.Yield == nil {
		t.Fatalf("yield failed: %+v", res)
	}
	y := res.Yield
	if y.Chips != 40 {
		t.Fatalf("chips=%d, want 40", y.Chips)
	}
	if y.Successes < 1 {
		t.Fatal("no die recovered at 3% density on a 20x20 chip; expected most to succeed")
	}
	if y.SuccessRate != float64(y.Successes)/40 {
		t.Fatalf("inconsistent success rate %v for %d successes", y.SuccessRate, y.Successes)
	}
	if y.AvgBIST <= 0 {
		t.Fatalf("avg BIST calls %v, want > 0", y.AvgBIST)
	}
	// Determinism: same seed, same aggregate.
	res2 := e.DoCtx(context.Background(), req)
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("yield sweep not deterministic for fixed seed")
	}
	// Exactly one synthesis across both sweeps.
	if st := e.Stats(); st.SynthCalls != 1 {
		t.Fatalf("synth calls=%d, want 1", st.SynthCalls)
	}
	// Fault-path accounting: both sweeps drew and mapped 40 dies each.
	st := e.Stats()
	if st.DiesMapped != 80 || st.DefectMapsGenerated != 80 {
		t.Fatalf("dies=%d maps=%d, want 80/80", st.DiesMapped, st.DefectMapsGenerated)
	}
	// Every yield die either resolved on the lane fast path or was
	// demoted to the scalar mapper.
	if st.DiesCheckedFast+st.DiesDemotedScalar != 80 {
		t.Fatalf("fast=%d demoted=%d, want sum 80", st.DiesCheckedFast, st.DiesDemotedScalar)
	}
	if st.MapAttempts < st.DiesMapped {
		t.Fatalf("map attempts %d below dies %d", st.MapAttempts, st.DiesMapped)
	}
	if want := float64(st.MapAttempts) / float64(st.DiesMapped); st.MeanMapAttempts != want {
		t.Fatalf("mean attempts %v, want %v", st.MeanMapAttempts, want)
	}
}

// outOfOrderErrRunner stands in for a parallel runner whose dies
// complete out of index order: die 7 fails, then die 3, then every
// other die passes candidate 0.
type outOfOrderErrRunner struct{}

func (outOfOrderErrRunner) Name() string { return "out-of-order-errors" }

func (outOfOrderErrRunner) Run(_ context.Context, spec yield.Spec, emit func(yield.DieResult)) error {
	emit(yield.DieResult{Die: 7, Err: errors.New("seven")})
	emit(yield.DieResult{Die: 3, Err: errors.New("three")})
	for die := 0; die < spec.Dies; die++ {
		if die != 3 && die != 7 {
			emit(yield.DieResult{Die: die, Stats: bism.Stats{Configs: 1, BISTCalls: 1, Success: true}, Fast: true})
		}
	}
	return nil
}

// TestYieldReportsLowestFailingDie: a sweep aggregates dies as they
// arrive, yet its error names the lowest-index failing die, and the
// observer still sees every die error in completion order.
func TestYieldReportsLowestFailingDie(t *testing.T) {
	e := newTestEngine(t)
	e.yield = outOfOrderErrRunner{}
	req := Request{Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Density: 0.02, Chips: 10, ChipSize: 20, Seed: 1}
	var errDies []int
	res := e.DoStream(context.Background(), req, func(die int, _ *MapResult, err error) {
		if err != nil {
			errDies = append(errDies, die)
		}
	})
	if res.Ok() || !strings.Contains(res.Err.Error(), "die 3:") || !errors.Is(res.Err, apierr.ErrInternal) {
		t.Fatalf("result %+v, want an internal error naming die 3", res)
	}
	if !reflect.DeepEqual(errDies, []int{7, 3}) {
		t.Fatalf("observer saw die errors %v, want [7 3]", errDies)
	}
	if res := e.DoCtx(context.Background(), req); res.Ok() || !strings.Contains(res.Err.Error(), "die 3:") {
		t.Fatalf("non-streaming result %+v, want an error naming die 3", res)
	}
}

func TestRequestValidation(t *testing.T) {
	e := newTestEngine(t)
	for name, req := range map[string]Request{
		"unknown kind":    {Kind: "melt", Function: FunctionSpec{Name: "maj3"}},
		"no function":     {Kind: KindSynthesize},
		"two functions":   {Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3", Expr: "x1"}},
		"unknown name":    {Kind: KindSynthesize, Function: FunctionSpec{Name: "nope"}},
		"bad expr":        {Kind: KindSynthesize, Function: FunctionSpec{Expr: "x1 +"}},
		"bad tt":          {Kind: KindSynthesize, Function: FunctionSpec{TT: "3:zz"}},
		"bad tech":        {Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}, Tech: "memristor"},
		"bad scheme":      {Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Scheme: "psychic"},
		"yield with chip": {Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Chip: &DefectMapSpec{Rows: []string{"."}}},
		"huge chips":      {Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Chips: 4_000_000_000},
		"huge chip size":  {Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, ChipSize: 4_000_000_000},
		"huge attempts":   {Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, MaxAttempts: 2_000_000_000},
	} {
		if res := e.DoCtx(context.Background(), req); res.Ok() {
			t.Errorf("%s: request unexpectedly succeeded", name)
		}
	}
	if st := e.Stats(); st.Failures == 0 {
		t.Fatal("failure counter did not move")
	}
}

func TestConcurrentBatches(t *testing.T) {
	// Several goroutines submitting batches at once must all complete
	// with correct per-batch ordering.
	e := newTestEngine(t)
	const batches = 8
	var wg sync.WaitGroup
	wg.Add(batches)
	for b := 0; b < batches; b++ {
		b := b
		go func() {
			defer wg.Done()
			reqs := []Request{
				{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}},
				{Kind: KindCompare, Function: FunctionSpec{Name: "xor4"}},
				{Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Density: 0.02, Seed: int64(b)},
			}
			res := e.submitBatch(reqs)
			if len(res) != 3 {
				t.Errorf("batch %d: %d results", b, len(res))
				return
			}
			if res[0].Synthesis == nil || res[1].Compare == nil || res[2].Map == nil {
				t.Errorf("batch %d: results out of order: %+v", b, res)
			}
		}()
	}
	wg.Wait()
	// Distinct (function, tech) pairs across every batch: maj3 on the
	// lattice (shared by synthesize and map) and xor4 on all three
	// technologies — four underlying syntheses no matter how many
	// batches raced.
	if st := e.Stats(); st.SynthCalls != 4 {
		t.Fatalf("synth calls=%d, want 4", st.SynthCalls)
	}
}

// TestCloseRacesSubmitters: submitters racing Close never panic — each
// request either runs or resolves with an unavailable result, and every
// request after Close is refused that way.
func TestCloseRacesSubmitters(t *testing.T) {
	req := Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}}
	refused := 0
	for round := 0; round < 50; round++ {
		e := New(Config{Workers: 2, CacheSize: 8})
		var wg sync.WaitGroup
		var mu sync.Mutex
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					r := e.DoCtx(context.Background(), req)
					if !r.Ok() {
						if !errors.Is(r.Err, apierr.ErrUnavailable) || apierr.CodeOf(r.Err) != apierr.CodeUnavailable {
							t.Errorf("round %d: a request racing Close failed with %v (code %q), want unavailable", round, r.Err, apierr.CodeOf(r.Err))
						}
						mu.Lock()
						refused++
						mu.Unlock()
					}
				}
			}()
		}
		e.Close()
		wg.Wait()
		if r := e.DoCtx(context.Background(), req); !errors.Is(r.Err, apierr.ErrUnavailable) {
			t.Fatalf("round %d: Do after Close gave %v, want unavailable", round, r.Err)
		}
	}
	if refused == 0 {
		t.Fatal("no request raced Close; the test has no teeth")
	}
}

// TestCloseTwice: a second Close, sequential or concurrent, is a no-op.
func TestCloseTwice(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 8})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.Close() }()
	}
	wg.Wait()
	e.Close()
	if st := e.Stats(); st.Requests != 0 || st.Failures != 0 {
		t.Fatalf("closing counted requests: %+v", st)
	}
}

// TestCloseReleasesBlockedSubmitter: a submitter waiting on a full
// queue is refused when Close begins, not left holding Close until a
// run slot frees, while Close waits out the requests already admitted.
// The submitter usually blocks before Close starts; when Close wins the
// race the closed check refuses it instead, so the rounds repeat.
func TestCloseReleasesBlockedSubmitter(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		p := newPool(1)
		for i := 0; i < p.depth(); i++ {
			if err := p.admit(ctx, 0); err != nil {
				t.Fatal(err)
			}
		}
		submitting, refused := make(chan struct{}), make(chan error)
		go func() {
			close(submitting)
			refused <- p.admit(ctx, 0)
		}()
		<-submitting
		closed := make(chan struct{})
		go func() { p.close(); close(closed) }()
		if err := <-refused; err != errClosed {
			t.Fatalf("round %d: a submitter blocked on a full queue got %v when Close began, want errClosed", round, err)
		}
		select {
		case <-closed:
			t.Fatalf("round %d: Close returned before the admitted requests ran", round)
		default:
		}
		for i := 0; i < p.depth(); i++ {
			if err := p.start(ctx); err != nil {
				t.Fatal(err)
			}
			p.finish()
		}
		<-closed
	}
}

// FromMap encodes a defect map into its wire form, the inverse of
// DefectMapSpec.ToMap.
func FromMap(m *defect.Map) DefectMapSpec {
	var s DefectMapSpec
	s.Rows = make([]string, m.R)
	for r := 0; r < m.R; r++ {
		var sb strings.Builder
		for c := 0; c < m.C; c++ {
			switch m.At(r, c) {
			case defect.StuckOpen:
				sb.WriteByte('o')
			case defect.StuckClosed:
				sb.WriteByte('c')
			default:
				sb.WriteByte('.')
			}
		}
		s.Rows[r] = sb.String()
	}
	pick := func(n int, get func(int) bool) []int {
		var idx []int
		for i := 0; i < n; i++ {
			if get(i) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	s.RowBroken = pick(m.R, m.RowBroken)
	s.ColBroken = pick(m.C, m.ColBroken)
	s.RowBridges = pick(m.R-1, m.RowBridge)
	s.ColBridges = pick(m.C-1, m.ColBridge)
	return s
}
