// Package latsynth synthesizes four-terminal switching lattices for
// Boolean functions, implementing the methods compared in Section III-B
// of the DATE'17 paper:
//
//   - the Altun–Riedel dual-based construction ([2],[3] in the paper):
//     columns from an SOP cover of f, rows from an SOP cover of the dual
//     f^D, each crosspoint holding a literal shared by its row and
//     column products — giving the Fig. 5 size #products(f^D) ×
//     #products(f);
//   - a bounded exhaustive optimal search (the stand-in for the
//     SAT-based optimal synthesis of Gange–Søndergaard–Stuckey, [9]);
//   - a row/column post-reduction pass;
//   - a naive OR-of-columns SOP construction used as a baseline.
package latsynth

import (
	"fmt"
	"math/bits"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/isop"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/qm"
	"nanoxbar/internal/truthtab"
)

// CellChoice selects how the dual method picks one of the shared
// literals for a crosspoint.
type CellChoice int

// Cell literal selection heuristics.
const (
	// FirstCommon takes the lowest-indexed shared literal.
	FirstCommon CellChoice = iota
	// MostFrequent takes the shared literal occurring in the most
	// candidate sets across the grid, which tends to help the
	// post-reduction pass merge rows and columns.
	MostFrequent
)

// Options configure synthesis.
type Options struct {
	// Exact requests exact minimum SOP covers (Quine–McCluskey) for f
	// and f^D. When false, or when QM exceeds its limits, the
	// irredundant Minato–Morreale covers are used instead.
	Exact bool
	// QM bounds the exact minimizer effort.
	QM qm.Options
	// Cells selects the crosspoint literal heuristic.
	Cells CellChoice
	// PostReduce runs the row/column deletion pass after construction.
	PostReduce bool
	// PostReduceMaxArea skips post-reduction on lattices larger than
	// this (each deletion trial re-verifies the whole function, which
	// is quadratic in area; 0 means the default of 1200).
	PostReduceMaxArea int
}

// DefaultOptions are the settings used by the paper-reproduction
// benches: exact covers where affordable, frequency-based cell choice,
// post-reduction on.
func DefaultOptions() Options {
	return Options{Exact: true, QM: qm.DefaultOptions(), Cells: MostFrequent, PostReduce: true}
}

// PostReduceLimit resolves PostReduceMaxArea: the largest lattice area
// that post-reduction runs on, here and in the composed P-circuit and
// D-reducible lattices.
func (o Options) PostReduceLimit() int {
	if o.PostReduceMaxArea > 0 {
		return o.PostReduceMaxArea
	}
	return 1200
}

// Result carries a synthesized lattice and its provenance.
type Result struct {
	Lattice   *lattice.Lattice
	FCover    cube.Cover // SOP of f used for columns
	DualCover cube.Cover // SOP of f^D used for rows
	Method    string
	ExactSOP  bool // covers are exact minimum SOPs
}

// Area returns the lattice area R·C.
func (r *Result) Area() int { return r.Lattice.Area() }

// Covers computes SOP covers for f and f^D per the options; exact when
// requested and affordable, otherwise irredundant.
func Covers(f truthtab.TT, opts Options) (fc, dc cube.Cover, exact bool) {
	fd := f.Dual()
	if opts.Exact {
		c1, err1 := qm.MinimizeTT(f, opts.QM)
		c2, err2 := qm.MinimizeTT(fd, opts.QM)
		if err1 == nil && err2 == nil {
			return c1, c2, true
		}
	}
	return isop.OfTT(f), isop.OfTT(fd), false
}

// IntervalCover picks a function g in the interval [on, on∨dc] with a
// small cover: exact by QM with don't-cares when opts.Exact and
// affordable, otherwise ISOP.
func IntervalCover(on, dc truthtab.TT, opts Options) truthtab.TT {
	if opts.Exact {
		if cov, err := qm.Minimize(on, dc, opts.QM); err == nil {
			return cov.ToTT(on.NumVars())
		}
	}
	return isop.Cover(on, on.Or(dc)).ToTT(on.NumVars())
}

// DualMethod synthesizes a lattice with the Altun–Riedel construction.
// The resulting size is #products(f^D) rows × #products(f) columns
// before post-reduction (the paper's Fig. 5 formula).
func DualMethod(f truthtab.TT, opts Options) (*Result, error) {
	fc, dc, exact := Covers(f, opts)
	return DualFromCovers(f, fc, dc, exact, opts)
}

// DualFromCovers is DualMethod on covers already computed by Covers(f,
// opts), so a caller that needs the covers for other technologies too
// minimizes f and f^D once. A constant f gets its 1×1 lattice and no
// covers.
func DualFromCovers(f truthtab.TT, fc, dc cube.Cover, exact bool, opts Options) (*Result, error) {
	if f.IsZero() || f.IsOne() {
		return &Result{Lattice: lattice.Constant(f.IsOne()), Method: "dual"}, nil
	}
	l, err := BuildDualGrid(fc, dc, opts.Cells)
	if err != nil {
		return nil, err
	}
	if !l.ImplementsFast(f) {
		// The construction is proven correct for implicant covers of f
		// and f^D; reaching this indicates a bug upstream.
		return nil, fmt.Errorf("latsynth: dual-method lattice does not implement f (f=%v)", f)
	}
	if opts.PostReduce && l.Area() <= opts.PostReduceLimit() {
		l = PostReduce(l, f)
	}
	return &Result{Lattice: l, FCover: fc, DualCover: dc, Method: "dual", ExactSOP: exact}, nil
}

// BuildDualGrid assembles the dual-method grid from covers of f
// (columns) and f^D (rows). Every row product and column product must
// share a literal; by the implicant-sharing lemma this always holds when
// fc covers f with implicants of f and dc covers f^D with implicants of
// f^D.
func BuildDualGrid(fc, dc cube.Cover, choice CellChoice) (*lattice.Lattice, error) {
	if len(fc) == 0 || len(dc) == 0 {
		return nil, fmt.Errorf("latsynth: empty cover")
	}
	// freq[0][v] and freq[1][v] count the cells that may hold x_v and
	// x_v' respectively.
	var freq [2][64]int
	for _, q := range dc {
		for _, p := range fc {
			sh := q.CommonLiterals(p)
			if sh.IsUniverse() {
				return nil, fmt.Errorf("latsynth: products %v and %v share no literal", p, q)
			}
			for m := sh.Pos; m != 0; m &= m - 1 {
				freq[0][bits.TrailingZeros64(m)]++
			}
			for m := sh.Neg; m != 0; m &= m - 1 {
				freq[1][bits.TrailingZeros64(m)]++
			}
		}
	}
	l := lattice.New(len(dc), len(fc))
	for i, q := range dc {
		for j, p := range fc {
			l.Set(i, j, pickLiteral(q.CommonLiterals(p), &freq, choice))
		}
	}
	return l, nil
}

// pickLiteral chooses a cell's literal among the shared literals sh,
// visited in ascending variable order, positive before negative: the
// first one, or under MostFrequent the first of those with the highest
// grid frequency (a later literal wins only on a strictly higher count).
func pickLiteral(sh cube.Cube, freq *[2][64]int, choice CellChoice) lattice.Site {
	pick, pickNeg := -1, 0
	for m := sh.Pos | sh.Neg; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		for neg, lits := range [2]uint64{sh.Pos, sh.Neg} {
			if lits>>v&1 == 0 {
				continue
			}
			if pick < 0 || choice == MostFrequent && freq[neg][v] > freq[pickNeg][pick] {
				pick, pickNeg = v, neg
			}
		}
	}
	return lattice.Lit(pick, pickNeg == 1)
}

// PostReduce repeatedly deletes any single row or column whose removal
// leaves the lattice still implementing f, until no deletion applies.
// Deleting a wire is always physically realizable, so this is a safe
// area optimization. Each round computes the lattice's on-masks once
// per word block, and each deletion trial checks the lattice minus one
// row or column in place from them, through one pooled bit-parallel
// evaluator that exits on the first mismatching 64-assignment word —
// the common case, since most deletions break the function. Only an
// accepted deletion is carried out, on a copy made at the first one; l
// itself is never modified, and is returned as is when no deletion
// applies.
func PostReduce(l *lattice.Lattice, f truthtab.TT) *lattice.Lattice {
	ev := lattice.GetEvaluator()
	defer lattice.PutEvaluator(ev)
	cur := l
	for {
		row, col := firstDeletion(ev, cur, f)
		if row < 0 && col < 0 {
			return cur
		}
		if cur == l {
			cur = l.Clone()
		}
		if row >= 0 {
			cur.DeleteRow(row)
		} else {
			cur.DeleteCol(col)
		}
	}
}

// firstDeletion returns the first row of cur whose deletion still
// implements f, or failing that the first such column; −1 for the other
// index, or for both when no deletion applies.
func firstDeletion(ev *lattice.Evaluator, cur *lattice.Lattice, f truthtab.TT) (row, col int) {
	ev.LoadDeletions(cur, f.NumVars())
	if cur.R > 1 {
		for i := 0; i < cur.R; i++ {
			if ev.ImplementsWithoutRow(i, f) {
				return i, -1
			}
		}
	}
	if cur.C > 1 {
		for j := 0; j < cur.C; j++ {
			if ev.ImplementsWithoutCol(j, f) {
				return -1, j
			}
		}
	}
	return -1, -1
}
