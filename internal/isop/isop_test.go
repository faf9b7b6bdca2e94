package isop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

func randTT(n int, rng *rand.Rand) truthtab.TT {
	t := truthtab.New(n)
	for a := uint64(0); a < t.Size(); a++ {
		if rng.Intn(2) == 1 {
			t.SetBit(a, true)
		}
	}
	return t
}

func TestConstants(t *testing.T) {
	for n := 0; n <= 6; n++ {
		if len(OfTT(truthtab.Zero(n))) != 0 {
			t.Fatal("cover of 0 not empty")
		}
		c := OfTT(truthtab.One(n))
		if len(c) != 1 || !c[0].IsUniverse() {
			t.Fatalf("cover of 1 = %v", c)
		}
	}
}

func TestSingleVar(t *testing.T) {
	f := truthtab.Var(3, 1)
	c := OfTT(f)
	if len(c) != 1 || c[0].String() != "x2" {
		t.Fatalf("cover = %v", c)
	}
}

func TestExactCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(8)
		f := randTT(n, rng)
		c := OfTT(f)
		if !c.ToTT(f.NumVars()).Equal(f) {
			t.Fatalf("ISOP cover != f for n=%d f=%v cover=%v", n, f, c)
		}
	}
}

func TestIrredundancy(t *testing.T) {
	// Removing any cube must lose part of the on-set (with L = U = f).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := 2 + rng.Intn(5)
		f := randTT(n, rng)
		c := OfTT(f)
		for k := range c {
			reduced := make(cube.Cover, 0, len(c)-1)
			reduced = append(reduced, c[:k]...)
			reduced = append(reduced, c[k+1:]...)
			if reduced.ToTT(f.NumVars()).Equal(f) {
				t.Fatalf("cube %v redundant in cover %v of %v", c[k], c, f)
			}
		}
	}
}

func TestAllCubesAreImplicants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(7)
		f := randTT(n, rng)
		for _, cb := range OfTT(f) {
			if !(cube.Cover{cb}).ToTT(f.NumVars()).Implies(f) {
				t.Fatalf("cube %v not implicant of %v", cb, f)
			}
		}
	}
}

func TestIntervalProperty(t *testing.T) {
	// With don't-cares: L ⇒ cover ⇒ U.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(6)
		a, b := randTT(n, rng), randTT(n, rng)
		L := a.And(b) // ensure L ⇒ U
		U := a.Or(b)
		c := Cover(L, U)
		g := c.ToTT(n)
		if !L.Implies(g) {
			t.Fatalf("cover misses required on-set: L=%v U=%v g=%v", L, U, g)
		}
		if !g.Implies(U) {
			t.Fatalf("cover exceeds upper bound: L=%v U=%v g=%v", L, U, g)
		}
	}
}

func TestDontCaresShrinkCover(t *testing.T) {
	// f = x1x2 with DC everywhere x1=1: minimal choice is just x1.
	n := 2
	L := truthtab.Var(n, 0).And(truthtab.Var(n, 1))
	U := truthtab.Var(n, 0)
	c := Cover(L, U)
	if len(c) != 1 || c[0].NumLiterals() != 1 {
		t.Fatalf("expected single-literal cube, got %v", c)
	}
}

func TestKnownFunctions(t *testing.T) {
	// XOR needs 2 products; XNOR needs 2.
	xor := truthtab.Var(2, 0).Xor(truthtab.Var(2, 1))
	if c := OfTT(xor); len(c) != 2 {
		t.Fatalf("xor cover = %v", c)
	}
	// Majority-3: exactly 3 prime implicants of 2 literals each.
	maj := truthtab.FromFunc(3, func(a uint64) bool {
		return a&1+a>>1&1+a>>2&1 >= 2
	})
	c := OfTT(maj)
	if len(c) != 3 {
		t.Fatalf("maj3 cover = %v", c)
	}
	for _, cb := range c {
		if cb.NumLiterals() != 2 {
			t.Fatalf("maj3 cube %v not prime-sized", cb)
		}
	}
}

func TestParity(t *testing.T) {
	// Parity of n vars needs 2^(n-1) products — ISOP must find exactly
	// that (every prime of parity is a minterm).
	for n := 2; n <= 6; n++ {
		p := truthtab.Zero(n)
		for a := uint64(0); a < p.Size(); a++ {
			ones := 0
			for v := 0; v < n; v++ {
				if a>>uint(v)&1 == 1 {
					ones++
				}
			}
			if ones%2 == 1 {
				p.SetBit(a, true)
			}
		}
		c := OfTT(p)
		if len(c) != 1<<(n-1) {
			t.Fatalf("parity%d cover has %d products, want %d", n, len(c), 1<<(n-1))
		}
	}
}

func TestQuickInterval(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a, b := randTT(n, rng), randTT(n, rng)
		L, U := a.And(b), a.Or(b)
		g := Cover(L, U).ToTT(n)
		return L.Implies(g) && g.Implies(U)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPanicOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for L not implying U")
		}
	}()
	Cover(truthtab.One(2), truthtab.Zero(2))
}

func TestLargerN(t *testing.T) {
	// Sanity at n=12 (beyond exact-minimizer comfort).
	rng := rand.New(rand.NewSource(6))
	f := truthtab.FromFunc(12, func(a uint64) bool { return rng.Intn(4) == 0 })
	c := OfTT(f)
	if !c.ToTT(f.NumVars()).Equal(f) {
		t.Fatal("n=12 ISOP cover mismatch")
	}
}
