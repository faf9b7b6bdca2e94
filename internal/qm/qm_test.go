package qm

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/isop"
	"nanoxbar/internal/truthtab"
)

var opts = DefaultOptions()

func minTT(t *testing.T, f truthtab.TT) cube.Cover {
	t.Helper()
	c, err := MinimizeTT(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
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

func TestConstants(t *testing.T) {
	if c := minTT(t, truthtab.Zero(3)); len(c) != 0 {
		t.Fatalf("min(0) = %v", c)
	}
	c := minTT(t, truthtab.One(3))
	if len(c) != 1 || !c[0].IsUniverse() {
		t.Fatalf("min(1) = %v", c)
	}
}

func TestPrimesKnown(t *testing.T) {
	// f = x1x2 + x1'x2' (XNOR): primes are exactly the two products.
	f := truthtab.FromMinterms(2, []uint64{0, 3})
	ps, err := Primes(f, truthtab.Zero(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("primes = %v", ps)
	}
	// maj3 has exactly 3 primes.
	maj := truthtab.FromFunc(3, func(a uint64) bool {
		return a&1+a>>1&1+a>>2&1 >= 2
	})
	ps, err = Primes(maj, truthtab.Zero(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("maj3 primes = %v", ps)
	}
}

func TestPrimesAreActuallyPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(5)
		f := randTT(n, rng)
		ps, err := Primes(f, truthtab.Zero(n), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if !cube.IsImplicant(p, f) {
				t.Fatalf("prime %v not implicant of %v", p, f)
			}
			// Dropping any literal must break implication.
			for _, l := range p.Literals() {
				q := p
				if l.Neg {
					q.Neg &^= 1 << uint(l.Var)
				} else {
					q.Pos &^= 1 << uint(l.Var)
				}
				if cube.IsImplicant(q, f) {
					t.Fatalf("cube %v of %v not prime (drop %v)", p, f, l)
				}
			}
		}
	}
}

func TestMinimizeEqualsFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 120; i++ {
		n := 1 + rng.Intn(6)
		f := randTT(n, rng)
		c := minTT(t, f)
		if !cube.IsCoverOf(c, f) {
			t.Fatalf("minimized cover != f: f=%v c=%v", f, c)
		}
	}
}

// bruteMinProducts finds the true minimum product count by enumerating
// prime subsets (tiny n only).
func bruteMinProducts(t *testing.T, f truthtab.TT) int {
	t.Helper()
	ps, err := Primes(f, truthtab.Zero(f.NumVars()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.IsZero() {
		return 0
	}
	n := f.NumVars()
	for k := 1; k <= len(ps); k++ {
		idx := make([]int, k)
		var rec func(pos, start int) bool
		rec = func(pos, start int) bool {
			if pos == k {
				var cv cube.Cover
				for _, i := range idx {
					cv = append(cv, ps[i])
				}
				return cv.ToTT(n).Equal(f)
			}
			for i := start; i < len(ps); i++ {
				idx[pos] = i
				if rec(pos+1, i+1) {
					return true
				}
			}
			return false
		}
		if rec(0, 0) {
			return k
		}
	}
	t.Fatal("no cover found from primes")
	return -1
}

func TestMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(3) // n in 2..4 keeps brute force cheap
		f := randTT(n, rng)
		c := minTT(t, f)
		want := bruteMinProducts(t, f)
		if len(c) != want {
			t.Fatalf("n=%d f=%v: got %d products, optimum %d (cover %v)", n, f, len(c), want, c)
		}
	}
}

func TestMinimalityVsISOP(t *testing.T) {
	// Exact result never uses more products than the ISOP heuristic.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(5)
		f := randTT(n, rng)
		exact := minTT(t, f)
		heur := isop.OfTT(f)
		if len(exact) > len(heur) {
			t.Fatalf("exact %d > isop %d for %v", len(exact), len(heur), f)
		}
	}
}

func TestDontCares(t *testing.T) {
	// on = x1x2, dc = x1x2' → minimum is the single literal x1.
	on := truthtab.Var(2, 0).And(truthtab.Var(2, 1))
	dc := truthtab.Var(2, 0).And(truthtab.Var(2, 1).Not())
	c, err := Minimize(on, dc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 || c[0].String() != "x1" {
		t.Fatalf("cover = %v", c)
	}
	g := c.ToTT(2)
	if !on.Implies(g) || !g.Implies(on.Or(dc)) {
		t.Fatal("don't-care interval violated")
	}
}

func TestDontCareInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(5)
		a, b := randTT(n, rng), randTT(n, rng)
		on := a.AndNot(b)
		dc := a.And(b)
		c, err := Minimize(on, dc, opts)
		if err != nil {
			t.Fatal(err)
		}
		g := c.ToTT(n)
		if !on.Implies(g) || !g.Implies(on.Or(dc)) {
			t.Fatalf("interval violated: on=%v dc=%v g=%v", on, dc, g)
		}
	}
}

func TestPaperExampleMinimization(t *testing.T) {
	// The DATE'17 running example f = x1x2 + x1'x2' must minimize to
	// exactly 2 products with 4 literals, and its dual to 2 products.
	f := truthtab.FromMinterms(2, []uint64{0, 3})
	c := minTT(t, f)
	if len(c) != 2 || c.TotalLiterals() != 4 {
		t.Fatalf("f cover = %v", c)
	}
	cd := minTT(t, f.Dual())
	if len(cd) != 2 {
		t.Fatalf("fD cover = %v", cd)
	}
}

func TestFig4FunctionMinimization(t *testing.T) {
	// Fig. 4 function: all 4 products are essential primes.
	cv, _, err := cube.ParseSOP("x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6")
	if err != nil {
		t.Fatal(err)
	}
	f := cv.ToTT(6)
	c := minTT(t, f)
	if len(c) != 4 {
		t.Fatalf("Fig.4 function minimized to %d products: %v", len(c), c)
	}
}

func TestLimitEnforcement(t *testing.T) {
	small := Options{MaxVars: 3, MaxPrimes: 50000}
	_, err := MinimizeTT(truthtab.One(4), small)
	if err == nil {
		t.Fatal("expected MaxVars error")
	}
	tiny := Options{MaxVars: 12, MaxPrimes: 2}
	rng := rand.New(rand.NewSource(6))
	_, err = MinimizeTT(randTT(6, rng), tiny)
	if err == nil {
		t.Fatal("expected MaxPrimes error")
	}
}

func TestTieBreakLiterals(t *testing.T) {
	// Among minimum-product covers the minimizer must pick fewest
	// literals. For f = x1 + x1'x2 (= x1 + x2), the 2-product covers
	// from primes {x1, x2} only; check literals = 2.
	f := truthtab.Var(2, 0).Or(truthtab.Var(2, 1))
	c := minTT(t, f)
	if len(c) != 2 || c.TotalLiterals() != 2 {
		t.Fatalf("cover = %v", c)
	}
}

func TestMinimizeEmptyOnSet(t *testing.T) {
	// An empty on-set has the empty cover whatever the don't-cares: no
	// prime of them is generated, so no prime limit can trip.
	tiny := Options{MaxVars: 12, MaxPrimes: 2}
	dc := randTT(6, rand.New(rand.NewSource(7)))
	c, err := Minimize(truthtab.Zero(6), dc, tiny)
	if err != nil || c == nil || len(c) != 0 {
		t.Fatalf("Minimize(0, dc) = %v, %v; want the empty cover", c, err)
	}
	// The variable limit still applies first.
	if _, err := Minimize(truthtab.Zero(4), truthtab.Zero(4), Options{MaxVars: 3}); err == nil {
		t.Fatal("expected MaxVars error for an empty on-set too")
	}
}
