package benchfn

import (
	"testing"

	"nanoxbar/internal/truthtab"
)

func TestSuiteWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suite() {
		if s.Name == "" || s.Description == "" {
			t.Fatalf("unnamed spec %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate name %s", s.Name)
		}
		seen[s.Name] = true
		if s.N() < 1 || s.N() > 12 {
			t.Fatalf("%s: %d vars outside bench range", s.Name, s.N())
		}
		if s.F.IsZero() || s.F.IsOne() {
			t.Fatalf("%s is constant", s.Name)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("suite too small: %d", len(seen))
	}
}

func TestMajority(t *testing.T) {
	m := Majority(5)
	if !m.F.Bit(0b11100) || m.F.Bit(0b00011) {
		t.Fatal("maj5 wrong")
	}
	if !m.F.Dual().Equal(m.F) {
		t.Fatal("majority must be self-dual")
	}
}

func TestParityCount(t *testing.T) {
	p := Parity(4)
	if p.F.CountOnes() != 8 {
		t.Fatal("xor4 on-set")
	}
}

func TestMux(t *testing.T) {
	m := Mux(2) // 4:1 mux, 6 vars: sel=vars 0,1; data=vars 2..5
	// sel=2 (binary 10): selects data input 2 → variable 4.
	a := uint64(0b010000) | 0b10 // data bit 4 set, sel = 2
	if !m.F.Bit(a) {
		t.Fatal("mux select path wrong")
	}
	if m.F.Bit(0b10) {
		t.Fatal("mux with zero data high")
	}
}

func TestRdBits(t *testing.T) {
	// rd53: count of 5 inputs, 3 output bits. Input 0b11111 → count 5
	// = 101: s0=1, s1=0, s2=1.
	if !Rd(5, 0).F.Bit(0b11111) || Rd(5, 1).F.Bit(0b11111) || !Rd(5, 2).F.Bit(0b11111) {
		t.Fatal("rd53 bits wrong at all-ones")
	}
	if Rd(5, 0).F.Bit(0) {
		t.Fatal("rd53 s0 at zero")
	}
}

func TestNineSym(t *testing.T) {
	s := NineSym()
	if !s.F.Bit(0b000000111) || s.F.Bit(0b000000011) || s.F.Bit(0b111111110) {
		t.Fatal("9sym membership wrong")
	}
	// Symmetric: any permutation of inputs preserves the value; spot
	// check via popcount equivalence classes.
	if s.F.Bit(0b000001111) != s.F.Bit(0b111100000) {
		t.Fatal("9sym not symmetric")
	}
}

func TestAdderBitAndComparator(t *testing.T) {
	// add2: 1+1 = 10 → s0=0, s1=1, carry(s2)=0.
	x := uint64(0b0101) // a=1, b=1
	if AdderBit(2, 0).F.Bit(x) || !AdderBit(2, 1).F.Bit(x) || AdderBit(2, 2).F.Bit(x) {
		t.Fatal("add2 of 1+1 wrong")
	}
	// cmp2: a=3,b=1 → greater.
	y := uint64(0b0111)
	if !ComparatorGT(2).F.Bit(y) {
		t.Fatal("cmp2 wrong")
	}
	if ComparatorGT(2).F.Bit(0b1101) { // a=1, b=3
		t.Fatal("cmp2 reversed")
	}
}

func TestRandomReproducible(t *testing.T) {
	a := RandomDensity(6, 0.4, 42)
	b := RandomDensity(6, 0.4, 42)
	if !a.F.Equal(b.F) {
		t.Fatal("seeded generator not reproducible")
	}
	c := RandomDensity(6, 0.4, 43)
	if a.F.Equal(c.F) {
		t.Fatal("different seeds should differ")
	}
}

func TestPaperExampleAndFig4(t *testing.T) {
	pe := PaperExample()
	if pe.F.CountOnes() != 2 {
		t.Fatal("xnor2 on-set")
	}
	f4 := Fig4()
	if f4.N() != 6 {
		t.Fatal("fig4 vars")
	}
	if !f4.F.Bit(0b000111) || !f4.F.Bit(0b111000) {
		t.Fatal("fig4 straight-column products missing")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("9sym"); !ok {
		t.Fatal("9sym missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("phantom benchmark")
	}
}

func TestDReducibleSpecIsReducible(t *testing.T) {
	s := DReducible(7, 2, 9)
	// All on-set points must satisfy two independent parity checks →
	// the on-set spans at most 2^(7-2) points.
	if s.F.CountOnes() > 32 {
		t.Fatalf("dred7 on-set %d too large", s.F.CountOnes())
	}
	if s.F.IsZero() {
		t.Fatal("dred empty")
	}
	_ = truthtab.TT{}
}
