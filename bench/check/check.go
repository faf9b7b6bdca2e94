// Package check holds the benchmark's own output checkers. They do not
// reuse the evaluators of the code under test: a lattice is re-evaluated
// by a scalar percolation search over every assignment, a two-terminal
// array by evaluating its covers cube by cube against f and f^D, and a
// die's mapping by redrawing that die's defect map from its seed.
package check

import (
	"fmt"
	"math/bits"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/cube"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xrand"
)

// Lattice reports an error unless l computes f top to bottom: for every
// assignment, a 4-connected path of conducting sites joins the top row
// to the bottom row exactly when f is 1.
func Lattice(l *lattice.Lattice, f truthtab.TT) error {
	p := newPercolator(l)
	for a := uint64(0); a < f.Size(); a++ {
		if got, want := p.conducts(a), f.Bit(a); got != want {
			return fmt.Errorf("lattice %dx%d: output %v at assignment %#x, want %v", l.R, l.C, got, a, want)
		}
	}
	return nil
}

// percolator is a depth-first search over one lattice with reusable
// scratch, so checking 2^n assignments allocates once.
type percolator struct {
	l     *lattice.Lattice
	seen  []bool
	stack []int
}

func newPercolator(l *lattice.Lattice) *percolator {
	return &percolator{l: l, seen: make([]bool, l.R*l.C), stack: make([]int, 0, l.R*l.C)}
}

func (p *percolator) on(r, c int, a uint64) bool {
	s := p.l.At(r, c)
	switch s.Kind {
	case lattice.Const0:
		return false
	case lattice.Const1:
		return true
	}
	return (a>>uint(s.Var)&1 == 1) != s.Neg
}

func (p *percolator) conducts(a uint64) bool {
	R, C := p.l.R, p.l.C
	clear(p.seen)
	p.stack = p.stack[:0]
	for c := 0; c < C; c++ {
		if p.on(0, c, a) {
			p.seen[c] = true
			p.stack = append(p.stack, c)
		}
	}
	for len(p.stack) > 0 {
		i := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		r, c := i/C, i%C
		if r == R-1 {
			return true
		}
		for _, d := range [4][2]int{{1, 0}, {0, -1}, {0, 1}, {-1, 0}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= R || nc < 0 || nc >= C || p.seen[nr*C+nc] || !p.on(nr, nc, a) {
				continue
			}
			p.seen[nr*C+nc] = true
			p.stack = append(p.stack, nr*C+nc)
		}
	}
	return false
}

// Cover reports an error unless the sum of products cv equals f.
func Cover(cv cube.Cover, f truthtab.TT) error {
	for a := uint64(0); a < f.Size(); a++ {
		got := false
		for _, c := range cv {
			if a&c.Pos == c.Pos && a&c.Neg == 0 {
				got = true
				break
			}
		}
		if got != f.Bit(a) {
			return fmt.Errorf("cover of %d products: output %v at assignment %#x, want %v", len(cv), got, a, f.Bit(a))
		}
	}
	return nil
}

// Dual returns f^D(a) = ¬f(¬a).
func Dual(f truthtab.TT) truthtab.TT {
	all := f.Size() - 1
	return truthtab.FromFunc(f.NumVars(), func(a uint64) bool { return !f.Bit(^a & all) })
}

// distinctLiterals counts the literals appearing anywhere in cv.
func distinctLiterals(cv cube.Cover) int {
	var pos, neg uint64
	for _, c := range cv {
		pos |= c.Pos
		neg |= c.Neg
	}
	return bits.OnesCount64(pos) + bits.OnesCount64(neg)
}

// Implementation checks one synthesized implementation of f. A lattice
// must percolate to f and report its own dimensions. A diode or FET
// array is an SOP circuit: its f cover must equal f (and, for FET, its
// dual cover must equal f^D), and its reported size must match the
// paper's Fig. 3 formulas recomputed from those covers — diode
// P(f) × (L(f)+1), FET L(f) × (P(f)+P(f^D)).
func Implementation(im *core.Implementation, f truthtab.TT) error {
	var rows, cols int
	switch im.Tech {
	case core.FourTerminal:
		if im.Lattice == nil {
			return fmt.Errorf("lattice implementation without a lattice")
		}
		if err := Lattice(im.Lattice, f); err != nil {
			return err
		}
		rows, cols = im.Lattice.R, im.Lattice.C
	case core.Diode:
		if err := Cover(im.FCover, f); err != nil {
			return fmt.Errorf("diode f cover: %w", err)
		}
		rows, cols = len(im.FCover), distinctLiterals(im.FCover)+1
	case core.FET:
		if err := Cover(im.FCover, f); err != nil {
			return fmt.Errorf("FET f cover: %w", err)
		}
		if err := Cover(im.DualCover, Dual(f)); err != nil {
			return fmt.Errorf("FET dual cover: %w", err)
		}
		rows, cols = distinctLiterals(im.FCover), len(im.FCover)+len(im.DualCover)
	default:
		return fmt.Errorf("unknown technology %v", im.Tech)
	}
	if im.Rows != rows || im.Cols != cols {
		return fmt.Errorf("%v: reported %dx%d, structure is %dx%d", im.Tech, im.Rows, im.Cols, rows, cols)
	}
	return nil
}

// LatticeApp is the self-mapping application of a lattice: every site
// that is not constant 0 needs a working crosspoint.
func LatticeApp(l *lattice.Lattice) *bism.App {
	used := make([][]bool, l.R)
	for r := range used {
		used[r] = make([]bool, l.C)
		for c := range used[r] {
			used[r][c] = l.At(r, c).Kind != lattice.Const0
		}
	}
	return bism.NewApp(used)
}

// Die checks the mapping reported for die `die` of a yield sweep over
// size×size chips. It redraws the die through the stream contract of
// yield.Spec.Seed — the die's xrand.SubSeed seeds a SplitMix source and
// defect.RandomInto draws the map from it — and re-validates the
// mapping on that map.
func Die(app *bism.App, size int, p defect.Params, seed int64, die int, rows, cols []int) error {
	src, rng := xrand.New()
	src.Seed(xrand.SubSeed(seed, die))
	m := defect.NewMap(size, size)
	defect.RandomInto(m, p, rng)
	if err := validate(app, m, rows, cols); err != nil {
		return fmt.Errorf("die %d: %w", die, err)
	}
	return nil
}

// MapChip checks the mapping of a single-chip map request, whose chip
// the engine draws with defect.Random from a SplitMix source seeded
// with the request seed.
func MapChip(app *bism.App, size int, p defect.Params, seed int64, rows, cols []int) error {
	src, rng := xrand.New()
	src.Seed(seed)
	return validate(app, defect.Random(size, size, p, rng), rows, cols)
}

// validate checks that the mapping is an injective placement inside the
// chip that passes a BIST session on m.
func validate(app *bism.App, m *defect.Map, rows, cols []int) error {
	if len(rows) != app.R || len(cols) != app.C {
		return fmt.Errorf("mapping places %dx%d lines, application is %dx%d", len(rows), len(cols), app.R, app.C)
	}
	for _, lines := range [][]int{rows, cols} {
		seen := make(map[int]bool, len(lines))
		for _, p := range lines {
			if p < 0 || p >= m.R || seen[p] {
				return fmt.Errorf("mapping line %d is out of range or reused on a %dx%d chip", p, m.R, m.C)
			}
			seen[p] = true
		}
	}
	if !bism.Validate(bism.NewChip(m), app, &bism.Mapping{Rows: rows, Cols: cols}) {
		return fmt.Errorf("mapping hits a defect")
	}
	return nil
}
