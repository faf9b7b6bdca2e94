package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/benchfn"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/defect"
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

func TestSynthesizeAllTechnologiesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := DefaultOptions()
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(3)
		f := randTT(n, rng)
		if f.IsZero() || f.IsOne() {
			continue
		}
		for _, tech := range []Technology{Diode, FET, FourTerminal} {
			im, err := Synthesize(f, tech, opts)
			if err != nil {
				t.Fatalf("%v: %v", tech, err)
			}
			if !im.Verify(f) {
				t.Fatalf("%v implementation wrong for %v", tech, f)
			}
			if im.Area() <= 0 {
				t.Fatalf("%v area %d", tech, im.Area())
			}
		}
	}
}

// TestEveryFourVarFunctionCompares runs each of the 65 536 functions of
// four variables through CompareTechnologies with the default options:
// every diode, FET and lattice implementation must compute its
// function. Relabelling the inputs can change an implementation's area
// but not its correctness, which Verify checks directly.
func TestEveryFourVarFunctionCompares(t *testing.T) {
	opts := DefaultOptions()
	for tt := uint64(0); tt < 1<<16; tt++ {
		f := truthtab.FromFunc(4, func(a uint64) bool { return tt>>a&1 == 1 })
		cmp, err := CompareTechnologies(f, opts)
		if err != nil {
			t.Fatalf("4:%#04x: %v", tt, err)
		}
		for _, im := range []*Implementation{cmp.Diode, cmp.FET, cmp.Lattice} {
			if !im.Verify(f) {
				t.Fatalf("4:%#04x: %v implementation %d×%d computes another function", tt, im.Tech, im.Rows, im.Cols)
			}
		}
	}
}

func TestPaperExampleSizes(t *testing.T) {
	// The §III running example must reproduce the paper's numbers:
	// diode 2×5, FET 4×4, lattice 2×2.
	f := benchfn.PaperExample().F
	c, err := CompareTechnologies(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.Diode.Rows != 2 || c.Diode.Cols != 5 {
		t.Fatalf("diode %d×%d", c.Diode.Rows, c.Diode.Cols)
	}
	if c.FET.Rows != 4 || c.FET.Cols != 4 {
		t.Fatalf("FET %d×%d", c.FET.Rows, c.FET.Cols)
	}
	if c.Lattice.Rows != 2 || c.Lattice.Cols != 2 {
		t.Fatalf("lattice %d×%d", c.Lattice.Rows, c.Lattice.Cols)
	}
}

func TestLatticePreprocessingNeverHurts(t *testing.T) {
	// With TryPCircuit/TryDReduce on, the kept lattice is never larger
	// than the plain dual-method one.
	rng := rand.New(rand.NewSource(2))
	plain := DefaultOptions()
	plain.TryPCircuit, plain.TryDReduce = false, false
	full := DefaultOptions()
	for i := 0; i < 20; i++ {
		n := 3 + rng.Intn(2)
		f := randTT(n, rng)
		p, err := Synthesize(f, FourTerminal, plain)
		if err != nil {
			t.Fatal(err)
		}
		fu, err := Synthesize(f, FourTerminal, full)
		if err != nil {
			t.Fatal(err)
		}
		if fu.Area() > p.Area() {
			t.Fatalf("preprocessing grew area %d → %d", p.Area(), fu.Area())
		}
		if !fu.Verify(f) {
			t.Fatal("preprocessed lattice wrong")
		}
	}
}

func TestFourTerminalUsuallySmallest(t *testing.T) {
	// The paper's headline: four-terminal implementations offer
	// favorably better sizes. Verify the lattice wins or ties on a
	// clear majority of the benchmark suite.
	opts := DefaultOptions()
	wins, total := 0, 0
	for _, s := range benchfn.Suite() {
		if s.N() > 7 {
			continue // keep the test fast; benches cover the rest
		}
		c, err := CompareTechnologies(s.F, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		total++
		if c.Lattice.Area() <= c.Diode.Area() && c.Lattice.Area() <= c.FET.Area() {
			wins++
		}
	}
	if wins*3 < total*2 {
		t.Fatalf("lattice smallest only %d/%d times", wins, total)
	}
}

func TestToAppShapes(t *testing.T) {
	f := benchfn.PaperExample().F
	opts := DefaultOptions()
	for _, tech := range []Technology{Diode, FET, FourTerminal} {
		im, err := Synthesize(f, tech, opts)
		if err != nil {
			t.Fatal(err)
		}
		app := im.ToApp()
		if app.R < 1 || app.C < 1 {
			t.Fatalf("%v app %d×%d", tech, app.R, app.C)
		}
		anyUsed := false
		for _, row := range app.Used {
			for _, u := range row {
				anyUsed = anyUsed || u
			}
		}
		if !anyUsed {
			t.Fatalf("%v app uses nothing", tech)
		}
	}
}

func TestMapWithRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := benchfn.Majority(3).F
	im, err := Synthesize(f, FourTerminal, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	chip := defect.Random(16, 16, defect.UniformCrosspoint(0.03), rng)
	rep, err := MapWithRecovery(im, chip, bism.Hybrid{}, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mapping == nil {
		t.Fatalf("hybrid failed on a lightly defective chip: %+v", rep.Stats)
	}
	if !bism.Validate(bism.NewChip(chip), im.ToApp(), rep.Mapping) {
		t.Fatal("returned mapping invalid")
	}
}

func TestMapWithRecoveryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im, err := Synthesize(benchfn.Majority(3).F, FourTerminal, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MapWithRecovery(im, defect.NewMap(3, 4), bism.Blind{}, 10, rng); err == nil {
		t.Fatal("non-square chip accepted")
	}
	if _, err := MapWithRecovery(im, defect.NewMap(2, 2), bism.Blind{}, 10, rng); err == nil {
		t.Fatal("too-small chip accepted")
	}
	// A constant function's diode and FET arrays have no rows to place.
	for _, c := range []struct {
		f    truthtab.TT
		tech Technology
	}{{truthtab.New(2), Diode}, {truthtab.New(2), FET}, {truthtab.New(2).Not(), FET}} {
		im, err := Synthesize(c.f, c.tech, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MapWithRecovery(im, defect.NewMap(4, 4), bism.Blind{}, 10, rng); !errors.Is(err, apierr.ErrBadSpec) {
			t.Fatalf("%v %d×%d implementation: error %v, want bad_spec", c.tech, im.Rows, im.Cols, err)
		}
	}
}

func TestTechnologyString(t *testing.T) {
	if Diode.String() != "diode" || FET.String() != "fet" || FourTerminal.String() != "4T-lattice" {
		t.Fatal("names")
	}
}

func TestParseTechnology(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Technology
	}{
		{"diode", Diode}, {"FET", FET}, {"lattice", FourTerminal},
		{"4T-lattice", FourTerminal}, {" 4t ", FourTerminal},
	} {
		got, err := ParseTechnology(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseTechnology(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseTechnology("memristor"); err == nil {
		t.Fatal("ParseTechnology accepted unknown technology")
	}
	// Every String() form must round-trip.
	for _, tech := range []Technology{Diode, FET, FourTerminal} {
		got, err := ParseTechnology(tech.String())
		if err != nil || got != tech {
			t.Fatalf("ParseTechnology(%v.String()) = %v, %v", tech, got, err)
		}
	}
}

func TestCacheKeyStability(t *testing.T) {
	f := benchfn.Majority(3).F
	g := benchfn.Parity(3).F
	opts := DefaultOptions()
	k1 := CacheKey(f, FourTerminal, opts)
	k2 := CacheKey(benchfn.Majority(3).F, FourTerminal, opts)
	if k1 != k2 {
		t.Fatal("identical inputs produced different cache keys")
	}
	if CacheKey(g, FourTerminal, opts) == k1 {
		t.Fatal("different functions share a cache key")
	}
	if CacheKey(f, Diode, opts) == k1 {
		t.Fatal("different technologies share a cache key")
	}
	changed := opts
	changed.TryPCircuit = !changed.TryPCircuit
	if CacheKey(f, FourTerminal, changed) == k1 {
		t.Fatal("different options share a cache key")
	}
	if !strings.Contains(Fingerprint(), "nanoxbar-core/") {
		t.Fatalf("fingerprint %q lacks version prefix", Fingerprint())
	}
}
