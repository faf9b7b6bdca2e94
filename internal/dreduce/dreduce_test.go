package dreduce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nanoxbar/internal/bexpr"
	"nanoxbar/internal/gf2"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/truthtab"
)

func randTT(n int, rng *rand.Rand) truthtab.TT {
	f := truthtab.New(n)
	for a := uint64(0); a < f.Size(); a++ {
		if rng.Intn(2) == 1 {
			f.SetBit(a, true)
		}
	}
	return f
}

func TestAnalyzeIdentityRandom(t *testing.T) {
	// f = χA · fA must hold for every nonzero function.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 150; i++ {
		n := 1 + rng.Intn(6)
		f := randTT(n, rng)
		if f.IsZero() {
			continue
		}
		an, err := Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !an.Verify(f) {
			t.Fatalf("identity broken for f=%v (dim=%d)", f, an.Affine.Dim())
		}
	}
}

func TestAnalyzeKnownReducible(t *testing.T) {
	// f = (x1 ⊕ x2) · x3: on-set within the affine plane x1⊕x2=1.
	e, err := bexpr.Parse("(x1 ^ x2) x3")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.TT(3)
	an, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Reducible {
		t.Fatal("function should be D-reducible")
	}
	// On-set points all satisfy x1⊕x2 = 1 AND x3 = 1, so the hull is
	// the line {x1⊕x2=1, x3=1}: dimension 1, two parity checks.
	if an.Affine.Dim() != 1 {
		t.Fatalf("dim = %d, want 1", an.Affine.Dim())
	}
	if len(an.Checks) != 2 {
		t.Fatalf("checks = %d", len(an.Checks))
	}
	if !an.Verify(f) {
		t.Fatal("identity")
	}
}

func TestAnalyzeAffineConstraintsExact(t *testing.T) {
	// Carefully: f = (x1 ⊕ x2)·x3 has on-set {110?, 011?...} over 3
	// vars: points {011, 101} wait — enumerate: x1⊕x2=1 and x3=1:
	// points (x1,x2,x3) ∈ {(1,0,1),(0,1,1)} = minterms 0b101, 0b110.
	f := truthtab.FromMinterms(3, []uint64{0b101, 0b110})
	an, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	// Hull: two points differing in bits 0,1 → dim 1, codim 2.
	if an.Affine.Dim() != 1 || len(an.Checks) != 2 {
		t.Fatalf("dim=%d checks=%d", an.Affine.Dim(), len(an.Checks))
	}
	if !an.Verify(f) {
		t.Fatal("identity")
	}
}

func TestNonReducible(t *testing.T) {
	// Functions whose on-set spans everything: e.g. all minterms.
	f := truthtab.One(3)
	an, err := Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if an.Reducible {
		t.Fatal("constant 1 must not be reducible")
	}
	if !an.ChiA.IsOne() {
		t.Fatal("χA of full space must be 1")
	}
}

func TestAnalyzeZeroFails(t *testing.T) {
	if _, err := Analyze(truthtab.Zero(3)); err == nil {
		t.Fatal("expected error for constant 0")
	}
}

func TestFADependsOnlyOnFreeVars(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 80; i++ {
		n := 2 + rng.Intn(5)
		f := randTT(n, rng)
		if f.IsZero() {
			continue
		}
		an, err := Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		freeSet := make(map[int]bool)
		for _, v := range an.FreeVars {
			freeSet[v] = true
		}
		for v := 0; v < n; v++ {
			if !freeSet[v] && an.FA.DependsOn(v) {
				t.Fatalf("fA depends on non-free x%d (f=%v)", v+1, f)
			}
		}
	}
}

func TestSynthesizeCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opts := latsynth.DefaultOptions()
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(4)
		f := randTT(n, rng)
		res, err := Synthesize(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatalf("composed lattice wrong for %v", f)
		}
	}
}

func TestSynthesizeDReducibleFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	opts := latsynth.DefaultOptions()
	for i := 0; i < 40; i++ {
		n := 3 + rng.Intn(3)
		codim := 1 + rng.Intn(2)
		f, aff := RandomDReducible(n, codim, 0.5, rng)
		if aff.Dim() != n-codim {
			t.Fatalf("generator dim %d want %d", aff.Dim(), n-codim)
		}
		an, err := Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if !an.Reducible {
			t.Fatalf("generated function not reducible (n=%d codim=%d)", n, codim)
		}
		// The hull may be even smaller than the generator space.
		if an.Affine.Dim() > n-codim {
			t.Fatalf("hull dim %d exceeds generator dim %d", an.Affine.Dim(), n-codim)
		}
		res, err := Synthesize(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Lattice.Implements(f) {
			t.Fatal("lattice wrong for D-reducible function")
		}
	}
}

// inAffine reports whether x lies in a.Point ⊕ span(a.Basis), by
// walking the space's 2^dim points.
func inAffine(a *gf2.Affine, x uint64) bool {
	for sub := uint64(0); sub < 1<<len(a.Basis); sub++ {
		p := a.Point
		for i, b := range a.Basis {
			if sub>>uint(i)&1 == 1 {
				p ^= b
			}
		}
		if p == x {
			return true
		}
	}
	return false
}

func TestRandomDReducibleOnSetInSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		n := 3 + rng.Intn(4)
		codim := 1 + rng.Intn(n-1)
		if codim >= n {
			codim = n - 1
		}
		f, aff := RandomDReducible(n, codim, 0.7, rng)
		f.ForEachMinterm(func(a uint64) {
			if !inAffine(aff, a) {
				t.Fatalf("on-set point %b outside generator space", a)
			}
		})
	}
}

func TestQuickIdentity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		f := randTT(n, rng)
		if f.IsZero() {
			return true
		}
		an, err := Analyze(f)
		if err != nil {
			return false
		}
		return an.Verify(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { RandomDReducible(4, 4, 0.5, rng) })
	mustPanic(func() { RandomDReducible(4, 1, 0, rng) })
}

func TestPostReduceMaxAreaHonoured(t *testing.T) {
	// Below the area limit the composed AND(L(χA), L(fA)) lattice must
	// stay exactly as composed, while the default limit reduces some.
	small := latsynth.DefaultOptions()
	small.PostReduceMaxArea = 1
	off := latsynth.DefaultOptions()
	off.PostReduce = false
	rng := rand.New(rand.NewSource(8))
	reduced := 0
	for i := 0; i < 30; i++ {
		f, _ := RandomDReducible(3+rng.Intn(3), 1+rng.Intn(2), 0.5, rng)
		got, err := Synthesize(f, small)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Synthesize(f, off)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lattice.String() != want.Lattice.String() {
			t.Fatalf("%v: PostReduceMaxArea=1 gave\n%vwant the unreduced\n%v", f, got.Lattice, want.Lattice)
		}
		def, err := Synthesize(f, latsynth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if def.Area() < want.Area() {
			reduced++
		}
	}
	if reduced == 0 {
		t.Fatal("default post-reduction never shrank a composed lattice; the test has no teeth")
	}
}
