package truthtab

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randTT builds a reproducible random table.
func randTT(n int, rng *rand.Rand) TT {
	t := New(n)
	for a := uint64(0); a < t.Size(); a++ {
		if rng.Intn(2) == 1 {
			t.SetBit(a, true)
		}
	}
	return t
}

func TestConstants(t *testing.T) {
	for n := 0; n <= 10; n++ {
		z, o := Zero(n), One(n)
		if !z.IsZero() {
			t.Fatalf("Zero(%d) not zero", n)
		}
		if !o.IsOne() {
			t.Fatalf("One(%d) not one: count %d of %d", n, o.CountOnes(), o.Size())
		}
		if z.Equal(o) && n >= 0 {
			t.Fatalf("Zero(%d) == One(%d)", n, n)
		}
		if got := o.CountOnes(); got != uint64(1)<<n {
			t.Fatalf("One(%d) popcount = %d", n, got)
		}
	}
}

func TestVarProjection(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for v := 0; v < n; v++ {
			tv := Var(n, v)
			for a := uint64(0); a < tv.Size(); a++ {
				want := a>>uint(v)&1 == 1
				if tv.Bit(a) != want {
					t.Fatalf("Var(%d,%d) at %b = %v, want %v", n, v, a, tv.Bit(a), want)
				}
			}
		}
	}
}

func TestBooleanOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 9; n++ {
		f, g := randTT(n, rng), randTT(n, rng)
		and, or, xor, andn, not := f.And(g), f.Or(g), f.Xor(g), f.AndNot(g), f.Not()
		for a := uint64(0); a < f.Size(); a++ {
			fb, gb := f.Bit(a), g.Bit(a)
			if and.Bit(a) != (fb && gb) {
				t.Fatalf("n=%d And wrong at %d", n, a)
			}
			if or.Bit(a) != (fb || gb) {
				t.Fatalf("n=%d Or wrong at %d", n, a)
			}
			if xor.Bit(a) != (fb != gb) {
				t.Fatalf("n=%d Xor wrong at %d", n, a)
			}
			if andn.Bit(a) != (fb && !gb) {
				t.Fatalf("n=%d AndNot wrong at %d", n, a)
			}
			if not.Bit(a) != !fb {
				t.Fatalf("n=%d Not wrong at %d", n, a)
			}
		}
	}
}

func TestDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 8; n++ {
		f, g := randTT(n, rng), randTT(n, rng)
		lhs := f.And(g).Not()
		rhs := f.Not().Or(g.Not())
		if !lhs.Equal(rhs) {
			t.Fatalf("De Morgan failed at n=%d", n)
		}
	}
}

func TestCofactorSmallAndLargeVars(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 6, 7, 8, 9} {
		f := randTT(n, rng)
		for v := 0; v < n; v++ {
			for _, val := range []bool{false, true} {
				c := f.Cofactor(v, val)
				if c.DependsOn(v) {
					t.Fatalf("cofactor still depends on x%d", v)
				}
				for a := uint64(0); a < f.Size(); a++ {
					// Force bit v of a to val and compare with f.
					b := a &^ (1 << uint(v))
					if val {
						b |= 1 << uint(v)
					}
					if c.Bit(a) != f.Bit(b) {
						t.Fatalf("n=%d cofactor(x%d=%v) wrong at %d", n, v, val, a)
					}
				}
			}
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 5, 7, 8} {
		f := randTT(n, rng)
		for v := 0; v < n; v++ {
			x := Var(n, v)
			recon := x.Not().And(f.Cofactor(v, false)).Or(x.And(f.Cofactor(v, true)))
			if !recon.Equal(f) {
				t.Fatalf("Shannon expansion failed n=%d v=%d", n, v)
			}
		}
	}
}

func TestDualInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 8; n++ {
		f := randTT(n, rng)
		if !f.Dual().Dual().Equal(f) {
			t.Fatalf("dual(dual(f)) != f at n=%d", n)
		}
	}
}

func TestDualKnown(t *testing.T) {
	// dual(x1·x2) = x1 + x2
	n := 2
	and := Var(n, 0).And(Var(n, 1))
	or := Var(n, 0).Or(Var(n, 1))
	if !and.Dual().Equal(or) {
		t.Fatal("dual(AND) != OR")
	}
	if !or.Dual().Equal(and) {
		t.Fatal("dual(OR) != AND")
	}
	// Majority of 3 is self-dual.
	maj := FromFunc(3, func(a uint64) bool {
		c := a&1 + a>>1&1 + a>>2&1
		return c >= 2
	})
	if !maj.Dual().Equal(maj) {
		t.Fatal("maj3 not self-dual")
	}
	// XOR of 2 vars: dual(x⊕y) = XNOR? dual(f)(x) = !f(!x); f=x⊕y at
	// complemented args is still x⊕y, so dual = ¬(x⊕y).
	xor := Var(2, 0).Xor(Var(2, 1))
	if !xor.Dual().Equal(xor.Not()) {
		t.Fatal("dual(xor2) wrong")
	}
}

func TestDualDeMorganProperty(t *testing.T) {
	// dual(f·g) = dual(f)+dual(g); dual(f+g) = dual(f)·dual(g)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(7)
		f, g := randTT(n, rng), randTT(n, rng)
		if !f.And(g).Dual().Equal(f.Dual().Or(g.Dual())) {
			t.Fatal("dual(f·g) != fD+gD")
		}
		if !f.Or(g).Dual().Equal(f.Dual().And(g.Dual())) {
			t.Fatal("dual(f+g) != fD·gD")
		}
	}
}

func TestSupport(t *testing.T) {
	// f = x0 ⊕ x2 over 4 vars: support {0,2}.
	f := Var(4, 0).Xor(Var(4, 2))
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 2 {
		t.Fatalf("support = %v", sup)
	}
}

func TestMintermsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 0; n <= 8; n++ {
		f := randTT(n, rng)
		g := FromMinterms(n, f.Minterms())
		if !g.Equal(f) {
			t.Fatalf("minterm round trip failed n=%d", n)
		}
		if uint64(len(f.Minterms())) != f.CountOnes() {
			t.Fatal("minterm count mismatch")
		}
	}
}

func TestImplies(t *testing.T) {
	a := Var(3, 0).And(Var(3, 1))
	b := Var(3, 0)
	if !a.Implies(b) {
		t.Fatal("x0x1 should imply x0")
	}
	if b.Implies(a) {
		t.Fatal("x0 should not imply x0x1")
	}
}

func TestFromFunc(t *testing.T) {
	f := FromFunc(3, func(a uint64) bool { return a == 5 })
	if f.CountOnes() != 1 || !f.Bit(5) {
		t.Fatal("FromFunc single minterm wrong")
	}
}

func TestQuickDualInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	prop := func(bitsv uint64, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		f := New(n)
		for a := uint64(0); a < f.Size(); a++ {
			if bitsv>>(a%64)&1 == 1 {
				f.SetBit(a, true)
			}
			bitsv = bitsv*6364136223846793005 + 1442695040888963407
		}
		return f.Dual().Dual().Equal(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDoubleNegation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 10)
		f := randTT(n, rand.New(rand.NewSource(seed)))
		return f.Not().Not().Equal(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringForm(t *testing.T) {
	f := FromMinterms(3, []uint64{1, 2})
	if f.String() != "3:0x6" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("New(-1)", func() { New(-1) })
	mustPanic("New(25)", func() { New(25) })
	mustPanic("Var out of range", func() { Var(3, 3) })
	mustPanic("mixed sizes", func() { New(2).And(New(3)) })
}

func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 8; trial++ {
			f := randTT(n, rng)
			g, err := Parse(f.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", f.String(), err)
			}
			if !g.Equal(f) {
				t.Fatalf("round trip changed %v into %v", f, g)
			}
		}
	}
}

func TestParseForms(t *testing.T) {
	for _, s := range []string{"3:0x96", "3:0X96", "3:96", "3:0x0096"} {
		f, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		want := FromMinterms(3, []uint64{1, 2, 4, 7})
		if !f.Equal(want) {
			t.Fatalf("Parse(%q) = %v, want %v", s, f, want)
		}
	}
	for _, s := range []string{"", "0x96", "3:", "3:0x", "-1:0x1", "25:0x1", "2:0x1f", "3:zz", "x:0x1", "3x:0x96", "+3:0x96", "03:0x96", "3 4:0x96"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) accepted invalid input", s)
		}
	}
}

func TestWordsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randTT(8, rng)
	w := f.Words()
	if len(w) != 4 {
		t.Fatalf("8-var table has %d words, want 4", len(w))
	}
	w[0] = ^w[0] // mutating the copy must not touch the table
	if f.Words()[0] == w[0] {
		t.Fatal("Words returned the backing slice, not a copy")
	}
	for n := 0; n <= 8; n++ {
		g := randTT(n, rng)
		if g.NumWords() != len(g.Words()) {
			t.Fatalf("n=%d: NumWords %d != len(Words) %d", n, g.NumWords(), len(g.Words()))
		}
		for i := 0; i < g.NumWords(); i++ {
			if g.Word(i) != g.Words()[i] {
				t.Fatalf("n=%d: Word(%d) mismatch", n, i)
			}
		}
	}
}
