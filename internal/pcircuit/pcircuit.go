// Package pcircuit implements the P-circuit decomposition used as a
// lattice-synthesis preprocessing step in Section III-B-1 of the DATE'17
// paper (after Bernasconi, Ciriani, Frontini, Liberali, Trucco, Villa).
//
// For a splitting variable x and the projections c0 = f|x=0 and
// c1 = f|x=1 with intersection I = c0·c1, the P-circuit form is
//
//	P(f) = x'·f= + x·f≠ + fI
//
// with the freedom (the paper's conditions 1–3):
//
//	(c0 \ I) ⊆ f= ⊆ c0,   (c1 \ I) ⊆ f≠ ⊆ c1,   ∅ ⊆ fI ⊆ I.
//
// Any choice inside those intervals reproduces f exactly. The
// sub-functions depend on n−1 variables and have smaller on-sets, so
// their lattices are often smaller; the blocks are recombined with the
// lattice OR/AND composition rules. This package synthesizes the blocks
// with both the exact and the flexibility-exploiting cover choices and
// searches all splitting variables for the best area.
package pcircuit

import (
	"fmt"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

// Mode selects how the decomposition blocks are chosen.
type Mode int

// Decomposition modes.
const (
	// Shannon uses f= = c0, f≠ = c1 and omits the fI block: the plain
	// Shannon expansion (the fI interval chooses ∅).
	Shannon Mode = iota
	// WithIntersection uses fI = I and exploits the don't-care
	// intervals [cP \ I, cP] when covering the literal blocks.
	WithIntersection
)

func (m Mode) String() string {
	if m == Shannon {
		return "shannon"
	}
	return "intersection"
}

// Options configure the decomposition.
type Options struct {
	Synth latsynth.Options // used for the block lattices
	Mode  Mode
}

// Result is a synthesized P-circuit lattice.
type Result struct {
	Lattice *lattice.Lattice
	Var     int  // splitting variable
	Mode    Mode // block selection mode
	// Block functions actually chosen (over n vars, independent of Var).
	FEq, FNeq, FInt truthtab.TT
}

// Area returns the lattice area.
func (r *Result) Area() int { return r.Lattice.Area() }

// Decompose synthesizes the P-circuit lattice of f for splitting
// variable v.
func Decompose(f truthtab.TT, v int, opts Options) (*Result, error) {
	n := f.NumVars()
	if v < 0 || v >= n {
		return nil, fmt.Errorf("pcircuit: variable %d out of range", v)
	}
	if f.IsZero() || f.IsOne() {
		return &Result{Lattice: lattice.Constant(f.IsOne()), Var: v, Mode: opts.Mode,
			FEq: truthtab.Zero(n), FNeq: truthtab.Zero(n), FInt: truthtab.Zero(n)}, nil
	}
	c0 := f.Cofactor(v, false)
	c1 := f.Cofactor(v, true)
	inter := c0.And(c1)

	var fEq, fNeq, fInt truthtab.TT
	switch opts.Mode {
	case Shannon:
		fEq, fNeq, fInt = c0, c1, truthtab.Zero(n)
	case WithIntersection:
		fEq = latsynth.IntervalCover(c0.AndNot(inter), inter, opts.Synth)
		fNeq = latsynth.IntervalCover(c1.AndNot(inter), inter, opts.Synth)
		fInt = inter
	default:
		return nil, fmt.Errorf("pcircuit: unknown mode %d", opts.Mode)
	}

	var terms []*lattice.Lattice
	addTerm := func(lit *lattice.Lattice, g truthtab.TT) error {
		if g.IsZero() {
			return nil
		}
		if g.IsOne() {
			terms = append(terms, lit)
			return nil
		}
		sub, err := latsynth.DualMethod(g, opts.Synth)
		if err != nil {
			return err
		}
		terms = append(terms, lattice.And(lit, sub.Lattice))
		return nil
	}
	litNeg := lattice.FromCube(cube.FromLiteral(v, true))
	litPos := lattice.FromCube(cube.FromLiteral(v, false))
	if err := addTerm(litNeg, fEq); err != nil {
		return nil, err
	}
	if err := addTerm(litPos, fNeq); err != nil {
		return nil, err
	}
	if !fInt.IsZero() {
		if fInt.IsOne() {
			terms = append(terms, lattice.Constant(true))
		} else {
			sub, err := latsynth.DualMethod(fInt, opts.Synth)
			if err != nil {
				return nil, err
			}
			terms = append(terms, sub.Lattice)
		}
	}
	var l *lattice.Lattice
	if len(terms) == 0 {
		l = lattice.Constant(false)
	} else {
		l = lattice.OrAll(terms...)
	}
	if opts.Synth.PostReduce && l.Area() <= opts.Synth.PostReduceLimit() {
		l = latsynth.PostReduce(l, f)
	}
	if !l.ImplementsFast(f) {
		return nil, fmt.Errorf("pcircuit: composed lattice does not implement f (v=%d mode=%v)", v, opts.Mode)
	}
	return &Result{Lattice: l, Var: v, Mode: opts.Mode, FEq: fEq, FNeq: fNeq, FInt: fInt}, nil
}

// Best searches all splitting variables in f's support (and both modes
// when opts.Mode is WithIntersection, since Shannon occasionally wins)
// and returns the smallest-area decomposition.
func Best(f truthtab.TT, opts Options) (*Result, error) {
	sup := f.Support()
	if len(sup) == 0 {
		return Decompose(f, 0, opts)
	}
	modes := []Mode{opts.Mode}
	if opts.Mode == WithIntersection {
		modes = []Mode{WithIntersection, Shannon}
	}
	var best *Result
	for _, v := range sup {
		for _, m := range modes {
			o := opts
			o.Mode = m
			res, err := Decompose(f, v, o)
			if err != nil {
				return nil, err
			}
			if best == nil || res.Area() < best.Area() {
				best = res
			}
		}
	}
	return best, nil
}
