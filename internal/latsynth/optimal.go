package latsynth

import (
	"context"

	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

// OptimalOptions bound the exhaustive optimal lattice search.
type OptimalOptions struct {
	MaxArea        int  // largest lattice area to try (default 9)
	NodeBudget     int  // backtracking node limit (default 2_000_000)
	AllowConstants bool // permit Const0/Const1 sites (default true)
}

// DefaultOptimalOptions are tuned so functions of up to four support
// variables finish interactively.
func DefaultOptimalOptions() OptimalOptions {
	return OptimalOptions{MaxArea: 9, NodeBudget: 2_000_000, AllowConstants: true}
}

// OptimalCtx searches for a minimum-area lattice implementing f by
// iterative deepening on the area and backtracking over site
// assignments, pruning with monotone partial evaluations:
//
//   - if f(a)=1 yet no top-bottom path exists even with every unfilled
//     site conducting, no completion can work;
//   - if f(a)=0 yet a path exists using only definitely-conducting
//     sites, no completion can work.
//
// It is the repository's stand-in for the SAT-based optimal synthesis of
// reference [9]. The boolean result reports whether the search completed
// within budget; when true and the lattice is non-nil, the lattice has
// provably minimum area among shapes up to MaxArea. The search checks
// ctx every cancelCheckNodes expanded nodes, so a canceled caller
// abandons it promptly (the boolean result is false, as for a budget
// exhaustion).
func OptimalCtx(ctx context.Context, f truthtab.TT, opts OptimalOptions) (*lattice.Lattice, bool) {
	if f.IsZero() {
		return lattice.Constant(false), true
	}
	if f.IsOne() {
		return lattice.Constant(true), true
	}
	n := f.NumVars()
	var cands []lattice.Site
	for v := 0; v < n; v++ {
		if f.DependsOn(v) {
			cands = append(cands, lattice.Lit(v, false), lattice.Lit(v, true))
		}
	}
	if opts.AllowConstants {
		cands = append(cands, lattice.Site{Kind: lattice.Const0}, lattice.Site{Kind: lattice.Const1})
	}
	budget := opts.NodeBudget
	ev := lattice.NewEvaluator() // shared scratch across all candidate shapes
	for area := 1; area <= opts.MaxArea; area++ {
		for r := 1; r <= area; r++ {
			if area%r != 0 {
				continue
			}
			c := area / r
			s := &optSearch{f: f, n: n, cands: cands, budget: &budget, ev: ev, ctx: ctx}
			if got := s.run(r, c); got != nil {
				return got, true
			}
			if budget <= 0 || s.canceled {
				return nil, false
			}
		}
	}
	return nil, true
}

// cancelCheckNodes is how many dfs nodes run between context checks: a
// power of two so the check is a mask, frequent enough that a canceled
// optimal search stops within microseconds.
const cancelCheckNodes = 4096

type optSearch struct {
	f      truthtab.TT
	n      int
	cands  []lattice.Site
	budget *int
	ev     *lattice.Evaluator
	l      *lattice.Lattice
	filled int
	// The search struct lives for exactly one OptimalCtx call and the
	// recursive dfs reads the context every cancelCheckNodes nodes;
	// threading ctx through every frame would buy nothing.
	//xbarvet:ignore ctxfirst: single-call search state, not a retained context
	ctx      context.Context
	nodes    int
	canceled bool
}

func (s *optSearch) run(r, c int) *lattice.Lattice {
	s.l = lattice.New(r, c)
	s.filled = 0
	if s.dfs() {
		return s.l
	}
	return nil
}

// dfs fills sites row-major; returns true when a full assignment
// implements f.
func (s *optSearch) dfs() bool {
	if *s.budget <= 0 || s.canceled {
		return false
	}
	*s.budget--
	s.nodes++
	if s.nodes&(cancelCheckNodes-1) == 0 && s.ctx.Err() != nil {
		s.canceled = true
		return false
	}
	if s.filled == s.l.R*s.l.C {
		return s.ev.Implements(s.l, s.f)
	}
	r, c := s.filled/s.l.C, s.filled%s.l.C
	for _, cand := range s.cands {
		s.l.Set(r, c, cand)
		s.filled++
		if s.feasible() && s.dfs() {
			return true
		}
		s.filled--
	}
	s.l.Set(r, c, lattice.Site{Kind: lattice.Const0})
	return false
}

// feasible applies the two monotone prunes to the current partial fill
// in one bit-parallel pass: with unfilled sites conducting the lattice
// must still cover f, with unfilled sites blocking it must stay within
// f (lattice.Evaluator.FeasiblePartial evaluates all 2^n assignments
// 64 at a time instead of one BFS per assignment).
func (s *optSearch) feasible() bool {
	return s.ev.FeasiblePartial(s.l, s.filled, s.f)
}
