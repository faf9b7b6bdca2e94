package check

import (
	"context"
	"testing"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/yield"
)

// grid builds a lattice from rows of signed 1-based variable numbers:
// 3 is x3, -3 is x3'.
func grid(rows [][]int) *lattice.Lattice {
	l := lattice.New(len(rows), len(rows[0]))
	for r, row := range rows {
		for c, v := range row {
			l.Set(r, c, lattice.Lit(abs(v)-1, v < 0))
		}
	}
	return l
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// The paper's running example x1x2 + x1'x2' on its 2x2 lattice. The
// truth table is written out: bit a is f(x1 = a&1, x2 = a>>1&1), so the
// on-set is {00, 11} = 0b1001.
func TestLatticeXnor2(t *testing.T) {
	l := grid([][]int{{1, -1}, {2, -2}})
	want, err := truthtab.Parse("2:0x9")
	if err != nil {
		t.Fatal(err)
	}
	if err := Lattice(l, want); err != nil {
		t.Fatalf("xnor2 lattice rejected: %v", err)
	}
	if err := Lattice(l, want.Not()); err == nil {
		t.Fatal("xnor2 lattice accepted as xor2")
	}
}

// The paper's Fig. 4: the 3x2 lattice with columns x1 x2 x3 and
// x4 x5 x6 implements x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6 (the two
// cross paths turn at the middle row).
func fig4() (*lattice.Lattice, truthtab.TT) {
	l := grid([][]int{{1, 4}, {2, 5}, {3, 6}})
	f := truthtab.FromFunc(6, func(a uint64) bool {
		x := func(i int) bool { return a>>uint(i-1)&1 == 1 }
		return x(1) && x(2) && x(3) || x(1) && x(2) && x(5) && x(6) ||
			x(2) && x(3) && x(4) && x(5) || x(4) && x(5) && x(6)
	})
	return l, f
}

func TestLatticeFig4(t *testing.T) {
	l, f := fig4()
	if err := Lattice(l, f); err != nil {
		t.Fatalf("Fig. 4 lattice rejected: %v", err)
	}
}

func TestLatticeBroken(t *testing.T) {
	l, f := fig4()
	l.Set(2, 1, lattice.Lit(4, true)) // x6 -> x5': breaks x4x5x6
	if err := Lattice(l, f); err == nil {
		t.Fatal("broken Fig. 4 lattice accepted")
	}
}

func TestCoverAndDual(t *testing.T) {
	// maj3 = x1x2 + x1x3 + x2x3 is self-dual.
	maj := cube.Cover{{Pos: 0b011}, {Pos: 0b101}, {Pos: 0b110}}
	f := truthtab.FromFunc(3, func(a uint64) bool { return a == 3 || a >= 5 })
	if err := Cover(maj, f); err != nil {
		t.Fatal(err)
	}
	if !Dual(f).Equal(f) {
		t.Fatal("maj3 is self-dual")
	}
	if err := Cover(maj[:2], f); err == nil {
		t.Fatal("incomplete cover accepted")
	}
}

func TestImplementation(t *testing.T) {
	_, f := fig4()
	for _, tech := range []core.Technology{core.Diode, core.FET, core.FourTerminal} {
		im, err := core.Synthesize(f, tech, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := Implementation(im, f); err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		im.Cols++
		if err := Implementation(im, f); err == nil {
			t.Fatalf("%v: wrong reported size accepted", tech)
		}
	}
}

func TestDie(t *testing.T) {
	l, _ := fig4()
	app := LatticeApp(l)
	p := defect.UniformCrosspoint(0.08)
	spec := yield.Spec{App: app, Scheme: bism.Greedy{}, ChipSize: 12, Params: p, Dies: 64, Seed: 7, MaxAttempts: 200}
	checked, misplaced := 0, 0
	err := yield.LaneRunner{}.Run(context.Background(), spec, func(dr yield.DieResult) {
		if dr.Mapping == nil {
			return
		}
		if err := Die(app, spec.ChipSize, p, spec.Seed, dr.Die, dr.Mapping.Rows, dr.Mapping.Cols); err != nil {
			t.Errorf("valid die rejected: %v", err)
		}
		checked++
		// Checked against the next die's map, the same placement must
		// sometimes fail: the redraw really depends on the die index.
		if Die(app, spec.ChipSize, p, spec.Seed, dr.Die+1, dr.Mapping.Rows, dr.Mapping.Cols) != nil {
			misplaced++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || misplaced == 0 {
		t.Fatalf("%d dies mapped, %d rejected on a neighbouring die's map", checked, misplaced)
	}
	bad := []int{0, 0, 1}
	if err := Die(app, spec.ChipSize, p, spec.Seed, 0, bad, []int{0, 1}); err == nil {
		t.Fatal("reused physical row accepted")
	}
}
