package latsynth

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nanoxbar/internal/bexpr"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

func tt(t *testing.T, s string) truthtab.TT {
	t.Helper()
	f, _, err := bexpr.ParseTT(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randTT(n int, rng *rand.Rand) truthtab.TT {
	f := truthtab.New(n)
	for a := uint64(0); a < f.Size(); a++ {
		if rng.Intn(2) == 1 {
			f.SetBit(a, true)
		}
	}
	return f
}

func TestPaperRunningExample(t *testing.T) {
	// §III-B: f = x1x2 + x1'x2' with dual x1x2' + x1'x2 must give a
	// 2×2 lattice (Fig. 5 example).
	f := tt(t, "x1x2 + x1'x2'")
	opts := DefaultOptions()
	opts.PostReduce = false
	res, err := DualMethod(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lattice.R != 2 || res.Lattice.C != 2 {
		t.Fatalf("size %d×%d, want 2×2\n%v", res.Lattice.R, res.Lattice.C, res.Lattice)
	}
	if !res.Lattice.Implements(f) {
		t.Fatal("lattice incorrect")
	}
	if len(res.FCover) != 2 || len(res.DualCover) != 2 {
		t.Fatalf("covers %d,%d", len(res.FCover), len(res.DualCover))
	}
}

func TestDualMethodCorrectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := DefaultOptions()
	for i := 0; i < 120; i++ {
		n := 1 + rng.Intn(5)
		f := randTT(n, rng)
		res, err := DualMethod(f, opts)
		if err != nil {
			t.Fatalf("n=%d f=%v: %v", n, f, err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatalf("lattice wrong for %v", f)
		}
	}
}

func TestDualMethodDualReading(t *testing.T) {
	// The synthesized lattice must compute f^D left-to-right.
	rng := rand.New(rand.NewSource(2))
	opts := DefaultOptions()
	opts.PostReduce = false
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(4)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		res, err := DualMethod(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.DualFunction(n).Equal(f.Dual()) {
			t.Fatalf("dual reading wrong for %v\n%v", f, res.Lattice)
		}
	}
}

func TestFig5SizeFormula(t *testing.T) {
	// Size before post-reduction is exactly #products(f^D) × #products(f).
	rng := rand.New(rand.NewSource(3))
	opts := DefaultOptions()
	opts.PostReduce = false
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		res, err := DualMethod(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lattice.R != len(res.DualCover) || res.Lattice.C != len(res.FCover) {
			t.Fatalf("shape %d×%d vs covers %d,%d",
				res.Lattice.R, res.Lattice.C, len(res.DualCover), len(res.FCover))
		}
	}
}

func TestConstants(t *testing.T) {
	opts := DefaultOptions()
	for _, f := range []truthtab.TT{truthtab.Zero(3), truthtab.One(3)} {
		res, err := DualMethod(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) || res.Area() != 1 {
			t.Fatalf("constant lattice area %d", res.Area())
		}
	}
}

func TestSingleProductAndClause(t *testing.T) {
	opts := DefaultOptions()
	opts.PostReduce = false
	// Product: x1x2x3 → 3×1 column.
	f := tt(t, "x1x2x3")
	res, err := DualMethod(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lattice.R != 3 || res.Lattice.C != 1 {
		t.Fatalf("product lattice %d×%d", res.Lattice.R, res.Lattice.C)
	}
	// Clause: x1+x2+x3 → 1×3 row.
	g := tt(t, "x1 + x2 + x3")
	res, err = DualMethod(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lattice.R != 1 || res.Lattice.C != 3 {
		t.Fatalf("clause lattice %d×%d", res.Lattice.R, res.Lattice.C)
	}
}

func TestCellHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		for _, ch := range []CellChoice{FirstCommon, MostFrequent} {
			opts := DefaultOptions()
			opts.Cells = ch
			res, err := DualMethod(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Lattice.Implements(f) {
				t.Fatalf("heuristic %d wrong for %v", ch, f)
			}
		}
	}
}

func TestPostReduceNeverBreaks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := DefaultOptions()
	opts.PostReduce = true
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(4)
		f := randTT(n, rng)
		res, err := DualMethod(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatalf("post-reduced lattice wrong for %v", f)
		}
	}
}

func TestPostReduceShrinksOrKeeps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := DefaultOptions()
	base.PostReduce = false
	red := DefaultOptions()
	red.PostReduce = true
	smaller := 0
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		r0, err := DualMethod(f, base)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := DualMethod(f, red)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Area() > r0.Area() {
			t.Fatalf("post-reduce grew area %d→%d", r0.Area(), r1.Area())
		}
		if r1.Area() < r0.Area() {
			smaller++
		}
	}
	if smaller == 0 {
		t.Log("post-reduce never improved on this sample (acceptable but unusual)")
	}
}

func TestSOPBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := DefaultOptions()
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(4)
		f := randTT(n, rng)
		res, err := SOPBaseline(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatalf("baseline wrong for %v", f)
		}
	}
}

func TestISOPFallbackForLargerN(t *testing.T) {
	// Exact QM is limited to opts.QM.MaxVars; beyond it the dual
	// method must silently fall back to ISOP covers and stay correct.
	rng := rand.New(rand.NewSource(8))
	opts := DefaultOptions()
	opts.QM.MaxVars = 4
	opts.PostReduce = false
	f := randTT(6, rng)
	res, err := DualMethod(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactSOP {
		t.Fatal("expected ISOP fallback")
	}
	if !res.Lattice.Implements(f) {
		t.Fatal("fallback lattice wrong")
	}
}

func TestOptimalKnownSizes(t *testing.T) {
	o := DefaultOptimalOptions()
	// Single literal: 1×1.
	l, done := Optimal(tt(t, "x1"), o)
	if !done || l == nil || l.Area() != 1 {
		t.Fatalf("optimal(x1): area %v", l)
	}
	// x1x2: 2 cells minimum.
	l, done = Optimal(tt(t, "x1x2"), o)
	if !done || l == nil || l.Area() != 2 {
		t.Fatalf("optimal(x1x2) area = %d", l.Area())
	}
	// XNOR needs 4 cells (2×2).
	l, done = Optimal(tt(t, "x1x2 + x1'x2'"), o)
	if !done || l == nil || l.Area() != 4 {
		t.Fatalf("optimal(xnor) area = %d", l.Area())
	}
}

func TestOptimalNeverWorseThanDual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dOpts := DefaultOptions()
	oOpts := DefaultOptimalOptions()
	oOpts.MaxArea = 6
	for i := 0; i < 25; i++ {
		n := 2 + rng.Intn(2) // n in 2..3
		f := randTT(n, rng)
		dres, err := DualMethod(f, dOpts)
		if err != nil {
			t.Fatal(err)
		}
		l, done := Optimal(f, oOpts)
		if !done {
			continue // budget exhausted: no claim
		}
		if l == nil {
			// No lattice within MaxArea; the dual method must then
			// also exceed it.
			if dres.Area() <= oOpts.MaxArea {
				t.Fatalf("search missed a lattice of area %d for %v", dres.Area(), f)
			}
			continue
		}
		if !l.Implements(f) {
			t.Fatalf("optimal lattice wrong for %v", f)
		}
		if dres.Area() < l.Area() {
			t.Fatalf("dual method (%d) beat 'optimal' (%d) for %v", dres.Area(), l.Area(), f)
		}
	}
}

func TestQuickDualMethod(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(10))}
	opts := DefaultOptions()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		f := randTT(n, rng)
		res, err := DualMethod(f, opts)
		if err != nil {
			return false
		}
		return res.Lattice.Implements(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDualGridSharingViolation(t *testing.T) {
	// Covers that are not implicant covers of dual pairs can violate
	// the sharing lemma; the builder must reject them.
	fc := cube.Cover{{Pos: 0b01}} // x1
	dc := cube.Cover{{Pos: 0b10}} // x2 — shares nothing
	if _, err := BuildDualGrid(fc, dc, FirstCommon); err == nil {
		t.Fatal("expected sharing violation error")
	}
}

func TestFig4SynthesisComparison(t *testing.T) {
	// The paper's Fig. 4 function: dual-method size is P(fD)×P(f) =
	// rows×4; the hand lattice is 3×2 = 6. Verify our synthesis gives a
	// correct lattice and report sizes.
	f := tt(t, "x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6")
	res, err := DualMethod(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lattice.Implements(f) {
		t.Fatal("Fig.4 synthesis incorrect")
	}
	if len(res.FCover) != 4 {
		t.Fatalf("Fig.4 f-cover has %d products, want 4", len(res.FCover))
	}
	t.Logf("Fig.4 function: dual-method %d×%d (area %d) vs hand lattice 3×2 (area 6)",
		res.Lattice.R, res.Lattice.C, res.Area())
}

func TestPostReduceLeavesInputIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opts := DefaultOptions()
	opts.PostReduce = false
	shrunk := 0
	for i := 0; i < 40; i++ {
		f := randTT(2+rng.Intn(4), rng)
		res, err := DualMethod(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := res.Lattice.String()
		got := PostReduce(res.Lattice, f)
		if res.Lattice.String() != before {
			t.Fatalf("PostReduce modified its input for %v", f)
		}
		if !got.Implements(f) {
			t.Fatalf("post-reduced lattice wrong for %v", f)
		}
		if got.Area() < res.Area() {
			shrunk++
		} else if got != res.Lattice {
			t.Fatalf("PostReduce copied a lattice it could not reduce (%v)", f)
		}
	}
	if shrunk == 0 {
		t.Fatal("no sample was reduced; the test has no teeth")
	}
}

// TestPostReduceConcurrent runs the dual method — QM covers on pooled
// implicant planes, then PostReduce on a pooled evaluator — from
// several goroutines at once, as the engine's workers do, so the race
// detector sees the pooled scratch move between them; every lattice
// must equal the sequential one.
func TestPostReduceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := DefaultOptions()
	fs := make([]truthtab.TT, 24)
	want := make([]string, len(fs))
	for i := range fs {
		fs[i] = randTT(3+rng.Intn(5), rng)
		res, err := DualMethod(fs[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Lattice.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range fs {
				i := (k + 5*g) % len(fs)
				res, err := DualMethod(fs[i], opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Lattice.String(); got != want[i] {
					t.Errorf("concurrent DualMethod of %v:\n%s\nwant\n%s", fs[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
