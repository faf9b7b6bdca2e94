package pcircuit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nanoxbar/internal/bexpr"
	"nanoxbar/internal/latsynth"
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

func TestDecomposeCorrectAllVarsAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		for v := 0; v < n; v++ {
			for _, m := range []Mode{Shannon, WithIntersection} {
				opts := DefaultOptions()
				opts.Mode = m
				res, err := Decompose(f, v, opts)
				if err != nil {
					t.Fatalf("n=%d v=%d mode=%v: %v", n, v, m, err)
				}
				if !res.Lattice.Implements(f) {
					t.Fatalf("decomposition wrong: n=%d v=%d mode=%v f=%v", n, v, m, f)
				}
			}
		}
	}
}

func TestBlockIntervals(t *testing.T) {
	// The chosen blocks must satisfy the paper's interval conditions.
	rng := rand.New(rand.NewSource(2))
	opts := DefaultOptions()
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		v := rng.Intn(n)
		res, err := Decompose(f, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		c0 := f.Cofactor(v, false)
		c1 := f.Cofactor(v, true)
		inter := c0.And(c1)
		if !c0.AndNot(inter).Implies(res.FEq) || !res.FEq.Implies(c0) {
			t.Fatalf("f= interval violated (v=%d, f=%v)", v, f)
		}
		if !c1.AndNot(inter).Implies(res.FNeq) || !res.FNeq.Implies(c1) {
			t.Fatalf("f≠ interval violated (v=%d, f=%v)", v, f)
		}
		if !res.FInt.Implies(inter) {
			t.Fatalf("fI exceeds I (v=%d, f=%v)", v, f)
		}
	}
}

func TestPCircuitIdentity(t *testing.T) {
	// x'·f= + x·f≠ + fI must reconstruct f for the chosen blocks.
	rng := rand.New(rand.NewSource(3))
	opts := DefaultOptions()
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		v := rng.Intn(n)
		res, err := Decompose(f, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := truthtab.Var(n, v)
		recon := x.Not().And(res.FEq).Or(x.And(res.FNeq)).Or(res.FInt)
		if !recon.Equal(f) {
			t.Fatalf("P-circuit identity broken (v=%d, f=%v)", v, f)
		}
	}
}

func TestBestPicksMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	opts := DefaultOptions()
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		best, err := Best(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !best.Lattice.Implements(f) {
			t.Fatal("best lattice wrong")
		}
		// No individual split may beat it.
		for _, v := range f.Support() {
			for _, m := range []Mode{Shannon, WithIntersection} {
				o := opts
				o.Mode = m
				res, err := Decompose(f, v, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Area() < best.Area() {
					t.Fatalf("Best missed split v=%d mode=%v (%d < %d)", v, m, res.Area(), best.Area())
				}
			}
		}
	}
}

func TestConstantsAndLiterals(t *testing.T) {
	opts := DefaultOptions()
	for _, f := range []truthtab.TT{truthtab.Zero(2), truthtab.One(2), truthtab.Var(2, 0)} {
		res, err := Best(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatalf("trivial function wrong: %v", f)
		}
	}
}

func TestMuxBenefitsFromDecomposition(t *testing.T) {
	// A 2:1 mux f = s'a + sb decomposes perfectly on s: blocks become
	// single literals. The composed lattice must be correct and small.
	f := tt(t, "x1'x2 + x1x3")
	res, err := Decompose(f, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lattice.Implements(f) {
		t.Fatal("mux decomposition wrong")
	}
	if res.FEq.Support() != nil && len(res.FEq.Support()) > 1 {
		t.Fatalf("f= should be a single literal, support %v", res.FEq.Support())
	}
}

func TestQuickDecompose(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}
	opts := DefaultOptions()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		v := rng.Intn(n)
		res, err := Decompose(f, v, opts)
		if err != nil {
			return false
		}
		return res.Lattice.Implements(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBadVariable(t *testing.T) {
	if _, err := Decompose(truthtab.Var(2, 0), 5, DefaultOptions()); err == nil {
		t.Fatal("expected range error")
	}
}

func TestHeuristicSynthInBlocks(t *testing.T) {
	// Blocks must stay correct with ISOP covers (Exact=false).
	rng := rand.New(rand.NewSource(6))
	opts := DefaultOptions()
	opts.Synth = latsynth.Options{Exact: false, Cells: latsynth.FirstCommon, PostReduce: true}
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		res, err := Best(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatal("heuristic block synthesis wrong")
		}
	}
}

func TestPostReduceMaxAreaHonoured(t *testing.T) {
	// Below the area limit the composed lattice must stay exactly as
	// composed — the same lattice as with post-reduction off — while
	// the default limit does reduce some of these.
	small := DefaultOptions()
	small.Synth.PostReduceMaxArea = 1
	off := DefaultOptions()
	off.Synth.PostReduce = false
	reduced := 0
	for _, s := range []string{"x1x2 + x1x3 + x2x3", "x1'x2 + x1x3", "x1x2 + x3x4 + x1'x4'", "x1x2x3 + x1'x2'x3' + x2x4"} {
		f := tt(t, s)
		for v := 0; v < f.NumVars(); v++ {
			for _, m := range []Mode{Shannon, WithIntersection} {
				small.Mode, off.Mode = m, m
				got, err := Decompose(f, v, small)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Decompose(f, v, off)
				if err != nil {
					t.Fatal(err)
				}
				if got.Lattice.String() != want.Lattice.String() {
					t.Fatalf("%s v=%d %v: PostReduceMaxArea=1 gave\n%vwant the unreduced\n%v", s, v, m, got.Lattice, want.Lattice)
				}
				def := DefaultOptions()
				def.Mode = m
				d, err := Decompose(f, v, def)
				if err != nil {
					t.Fatal(err)
				}
				if d.Area() < want.Area() {
					reduced++
				}
			}
		}
	}
	if reduced == 0 {
		t.Fatal("default post-reduction never shrank a composed lattice; the test has no teeth")
	}
}

// DefaultOptions use exact covers and the intersection mode.
func DefaultOptions() Options {
	return Options{Synth: latsynth.DefaultOptions(), Mode: WithIntersection}
}
