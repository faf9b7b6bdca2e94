package cube

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nanoxbar/internal/truthtab"
)

func TestCubeBasics(t *testing.T) {
	c := Cube{Pos: 0b001, Neg: 0b010} // x1·x2'
	if c.IsContradiction() || c.IsUniverse() {
		t.Fatal("classification wrong")
	}
	if c.NumLiterals() != 2 {
		t.Fatalf("literals = %d", c.NumLiterals())
	}
	if c.String() != "x1x2'" {
		t.Fatalf("String = %q", c.String())
	}
	if !c.Eval(0b001) || c.Eval(0b011) || c.Eval(0b000) {
		t.Fatal("Eval wrong")
	}
	bad := Cube{Pos: 1, Neg: 1}
	if !bad.IsContradiction() || bad.String() != "0" {
		t.Fatal("contradiction handling")
	}
	if Universe.String() != "1" || !Universe.Eval(12345) {
		t.Fatal("universe handling")
	}
}

func TestFromLiteral(t *testing.T) {
	if FromLiteral(2, false).String() != "x3" {
		t.Fatal("positive literal")
	}
	if FromLiteral(0, true).String() != "x1'" {
		t.Fatal("negative literal")
	}
}

func TestContainment(t *testing.T) {
	x1 := Cube{Pos: 0b01}
	x1x2 := Cube{Pos: 0b11}
	if !x1.Contains(x1x2) {
		t.Fatal("x1 should contain x1x2")
	}
	if x1x2.Contains(x1) {
		t.Fatal("x1x2 should not contain x1")
	}
	if !Universe.Contains(x1) {
		t.Fatal("universe contains everything")
	}
	// Containment agrees with truth tables.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 4
		c := randCube(n, rng)
		d := randCube(n, rng)
		if c.IsContradiction() || d.IsContradiction() {
			continue
		}
		want := d.ToTT(n).Implies(c.ToTT(n))
		if c.Contains(d) != want {
			t.Fatalf("Contains(%v,%v) = %v want %v", c, d, c.Contains(d), want)
		}
	}
}

func randCube(n int, rng *rand.Rand) Cube {
	var c Cube
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			c.Pos |= 1 << uint(v)
		case 1:
			c.Neg |= 1 << uint(v)
		}
	}
	return c
}

func TestIntersect(t *testing.T) {
	a := Cube{Pos: 0b01} // x1
	b := Cube{Neg: 0b01} // x1'
	if _, ok := a.Intersect(b); ok {
		t.Fatal("x1 ∧ x1' should be contradictory")
	}
	c, ok := a.Intersect(Cube{Pos: 0b10})
	if !ok || c.String() != "x1x2" {
		t.Fatalf("intersect = %v", c)
	}
	// Intersection agrees with truth-table AND.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		n := 4
		x, y := randCube(n, rng), randCube(n, rng)
		z, ok := x.Intersect(y)
		want := x.ToTT(n).And(y.ToTT(n))
		if ok {
			if !z.ToTT(n).Equal(want) {
				t.Fatal("intersection truth table mismatch")
			}
		} else if !want.IsZero() {
			t.Fatal("claimed contradiction but AND nonzero")
		}
	}
}

func TestCommonLiterals(t *testing.T) {
	a := Cube{Pos: 0b011, Neg: 0b100} // x1x2x3'
	b := Cube{Pos: 0b001, Neg: 0b110} // x1x2'x3'
	common := a.CommonLiterals(b)
	if common.String() != "x1x3'" {
		t.Fatalf("common = %v", common)
	}
}

func TestCoverEvalAndTT(t *testing.T) {
	cv, n, err := ParseSOP("x1x2 + x1'x2'")
	if err != nil || n != 2 {
		t.Fatalf("parse: %v n=%d", err, n)
	}
	tt := cv.ToTT(2)
	want := truthtab.FromMinterms(2, []uint64{0, 3}) // XNOR
	if !tt.Equal(want) {
		t.Fatalf("tt = %v", tt)
	}
	if cv.NumProducts() != 2 || cv.TotalLiterals() != 4 || cv.DistinctLiterals() != 4 {
		t.Fatalf("counts: p=%d tl=%d dl=%d", cv.NumProducts(), cv.TotalLiterals(), cv.DistinctLiterals())
	}
}

// literalProductTT is the literal-by-literal construction the
// word-parallel ToTT replaced: a Var, a Not and an And per literal of
// a variable below n, and an Or per cube of a cover.
func literalProductTT(c Cube, n int) truthtab.TT {
	if c.IsContradiction() {
		return truthtab.Zero(n)
	}
	t := truthtab.One(n)
	for v := 0; v < n; v++ {
		if c.Pos>>uint(v)&1 == 1 {
			t = t.And(truthtab.Var(n, v))
		}
		if c.Neg>>uint(v)&1 == 1 {
			t = t.And(truthtab.Var(n, v).Not())
		}
	}
	return t
}

// TestToTTMatchesLiteralProducts: Cube.ToTT and Cover.ToTT fill the
// same tables as the literal-by-literal construction, for random cubes
// over 0–10 variables with literals beyond n, contradictions inside and
// beyond n, and the universe.
func TestToTTMatchesLiteralProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	randCube := func(n int) Cube {
		var c Cube
		for v := 0; v < n+3; v++ {
			switch rng.Intn(4) {
			case 0:
				c.Pos |= 1 << v
			case 1:
				c.Neg |= 1 << v
			}
		}
		if rng.Intn(8) == 0 {
			v := rng.Intn(n + 3)
			c.Pos, c.Neg = c.Pos|1<<v, c.Neg|1<<v
		}
		return c
	}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(11)
		cv := Cover{Universe}[:rng.Intn(2)]
		for k := rng.Intn(5); k > 0; k-- {
			cv = append(cv, randCube(n))
		}
		want := truthtab.Zero(n)
		for _, c := range cv {
			if got, w := c.ToTT(n), literalProductTT(c, n); !got.Equal(w) {
				t.Fatalf("n=%d cube %+v: ToTT %v, literal products %v", n, c, got, w)
			}
			want = want.Or(literalProductTT(c, n))
		}
		if got := cv.ToTT(n); !got.Equal(want) {
			t.Fatalf("n=%d cover %+v: ToTT %v, literal products %v", n, cv, got, want)
		}
	}
}

func TestPaperExampleCounts(t *testing.T) {
	// §III-A running example: f = x1x2 + x1'x2' has 4 literals, 2
	// products; its dual x1x2' + x1'x2 has 2 products.
	f, _, err := ParseSOP("x1x2 + x1'x2'")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumProducts() != 2 || f.DistinctLiterals() != 4 {
		t.Fatal("paper example counts wrong")
	}
	fd, _, err := ParseSOP("x1x2' + x1'x2")
	if err != nil {
		t.Fatal(err)
	}
	if !fd.ToTT(2).Equal(f.ToTT(2).Dual()) {
		t.Fatal("stated dual is not the dual")
	}
}

func TestAbsorb(t *testing.T) {
	cv, _, _ := ParseSOP("x1 + x1x2 + x3x4 + x3x4")
	r := cv.Absorb()
	if r.NumProducts() != 2 {
		t.Fatalf("absorbed cover = %v", r)
	}
	if !r.ToTT(4).Equal(cv.ToTT(4)) {
		t.Fatal("absorption changed the function")
	}
}

func TestAbsorbQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		cv := make(Cover, rng.Intn(8))
		for i := range cv {
			cv[i] = randCube(n, rng)
		}
		return cv.Absorb().ToTT(n).Equal(cv.ToTT(n))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFromTTMintermsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(6)
		f := truthtab.New(n)
		for a := uint64(0); a < f.Size(); a++ {
			if rng.Intn(2) == 1 {
				f.SetBit(a, true)
			}
		}
		cv := FromTTMinterms(f)
		if !IsCoverOf(cv, f) {
			t.Fatal("minterm cover mismatch")
		}
		for _, c := range cv {
			if !IsImplicant(c, f) {
				t.Fatal("minterm cube not an implicant")
			}
		}
	}
}

func TestParseSOPErrors(t *testing.T) {
	bad := []string{"", "x", "x0", "y1", "x1 +", "x1x1'", "x1 & x2", "x65"}
	for _, s := range bad {
		if _, _, err := ParseSOP(s); err == nil {
			t.Fatalf("ParseSOP(%q) should fail", s)
		}
	}
}

func TestParseSOPConstants(t *testing.T) {
	cv, _, err := ParseSOP("0")
	if err != nil || len(cv) != 0 {
		t.Fatal("parse 0")
	}
	cv, _, err = ParseSOP("1")
	if err != nil || len(cv) != 1 || !cv[0].IsUniverse() {
		t.Fatal("parse 1")
	}
}

func TestParseSOPFormats(t *testing.T) {
	forms := []string{"x1x2' + x3", "x1*x2' + x3", "X1 X2' + X3", " x1 . x2' + x3 "}
	var ref Cover
	for i, s := range forms {
		cv, n, err := ParseSOP(s)
		if err != nil {
			t.Fatalf("form %q: %v", s, err)
		}
		if n != 3 {
			t.Fatalf("maxvar = %d", n)
		}
		if i == 0 {
			ref = cv
			continue
		}
		if !cv.ToTT(3).Equal(ref.ToTT(3)) {
			t.Fatalf("form %q differs", s)
		}
	}
}

func TestCoverString(t *testing.T) {
	cv, _, _ := ParseSOP("x1x2 + x1'x2'")
	cv.Sort()
	if cv.String() != "x1'x2' + x1x2" && cv.String() != "x1x2 + x1'x2'" {
		t.Fatalf("String = %q", cv.String())
	}
	if (Cover{}).String() != "0" {
		t.Fatal("empty cover string")
	}
}

func TestPLAParseAndFormat(t *testing.T) {
	text := `# two-output demo
.i 3
.o 2
.p 3
11- 10
0-1 01
1-1 11
.e
`
	p, err := ParsePLA(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Inputs != 3 || p.Outputs != 2 {
		t.Fatalf("header: %+v", p)
	}
	if len(p.Covers[0]) != 2 || len(p.Covers[1]) != 2 {
		t.Fatalf("cover sizes %d,%d", len(p.Covers[0]), len(p.Covers[1]))
	}
	f0 := p.Covers[0].ToTT(3)
	want0, _, _ := ParseSOP("x1x2 + x1x3")
	if !f0.Equal(want0.ToTT(3)) {
		t.Fatal("output 0 function wrong")
	}
	// Round-trip output 1 through FormatPLA.
	text1 := FormatPLA(p.Covers[1], 3)
	p1, err := ParsePLA(text1)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Covers[0].ToTT(3).Equal(p.Covers[1].ToTT(3)) {
		t.Fatal("PLA round trip changed the function")
	}
}

func TestPLAConcatenatedRow(t *testing.T) {
	p, err := ParsePLA(".i 2\n.o 1\n111\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Covers[0]) != 1 || p.Covers[0][0].String() != "x1x2" {
		t.Fatalf("cover = %v", p.Covers[0])
	}
}

func TestPLAErrors(t *testing.T) {
	bad := []string{
		"11 1",                // cube before .i/.o
		".i 2\n.o 1\n113 1\n", // bad input char
		".i 2\n.o 1\n11 9\n",  // bad output char
		".i 2\n.o 1\n111 1\n", // width mismatch
		".i x\n.o 1\n",        // bad .i
		".i 2\n.foo\n",        // unknown directive
		"",                    // empty
	}
	for _, s := range bad {
		if _, err := ParsePLA(s); err == nil {
			t.Fatalf("ParsePLA(%q) should fail", s)
		}
	}
}

func TestSupport(t *testing.T) {
	cv, _, _ := ParseSOP("x1x5' + x3")
	sup := cv.Support()
	if len(sup) != 3 || sup[0] != 0 || sup[1] != 2 || sup[2] != 4 {
		t.Fatalf("support = %v", sup)
	}
}
