// Bit-parallel lattice evaluation.
//
// The scalar Eval walks one assignment at a time: a BFS over conducting
// sites per assignment, 2^n BFS passes to expand a function. Every hot
// loop in the repository — dual-method verification, PostReduce
// deletion trials, the bounded-optimal search, the serving engine —
// bottoms out there. The Evaluator below replaces that with truthtable
// word parallelism: each site's conduction over 64 consecutive
// assignments is a single uint64 "on-mask" (a literal site's mask is
// just the variable's truthtab bit pattern), and the top-to-bottom
// percolation becomes word-wide frontier propagation
//
//	reach[site] |= OR(reach[neighbors]) & on[site]
//
// iterated to fixpoint, so one pass evaluates 64 assignments at once.
// A scanline kernel reads the lattice top to bottom. A pass visits the
// rows in order, alternately downward and upward; each row gathers from
// the rows beside it, then closes itself left→right and right→left. A
// row that gains nothing from outside, or whose neighbours have not
// changed since its last scan, is skipped. A pass with no gain
// certifies the least fixpoint, and the reached set only grows, which
// gives Implements an early exit the moment the function overshoots
// its target on any word.
// PostReduce's deletion trials run through the same kernel in place:
// LoadDeletions computes a lattice's on-masks once per word block, and
// ImplementsWithoutRow/Col copy each trial's masks around the deleted
// row or column.

package lattice

import (
	"sync"
	"sync/atomic"

	"nanoxbar/internal/truthtab"
)

// numWords returns ceil(2^n / 64) with a one-word minimum, matching the
// truthtab Words layout.
func numWords(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// validMask returns the valid-assignment mask of a word for n
// variables (all 64 bits from n ≥ 6 up).
func validMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return uint64(1)<<(1<<n) - 1
}

// onMask returns the site's conduction mask over word block wi: bit a
// is s.On(wi<<6 | a), restricted to vm.
func onMask(s Site, wi int, vm uint64) uint64 {
	switch s.Kind {
	case Const0:
		return 0
	case Const1:
		return vm
	}
	var p, neg uint64
	if s.Var < 6 {
		p = truthtab.VarWord(s.Var)
	} else {
		p = -uint64(wi >> (s.Var - 6) & 1)
	}
	if s.Neg {
		neg = ^uint64(0)
	}
	return (p ^ neg) & vm
}

// Evaluation counters, exported through CounterSnapshot for the serving
// daemon's /stats endpoint.
var (
	ctrFastImplements atomic.Uint64
	ctrWordBlocks     atomic.Uint64
)

// Counters is a point-in-time snapshot of the process-wide lattice
// evaluation counters.
type Counters struct {
	FastImplements uint64 `json:"fast_implements"`  // bit-parallel Implements/feasibility checks
	WordBlocks     uint64 `json:"fast_word_blocks"` // 64-assignment word blocks percolated
}

// CounterSnapshot returns the current evaluation counters.
func CounterSnapshot() Counters {
	return Counters{
		FastImplements: ctrFastImplements.Load(),
		WordBlocks:     ctrWordBlocks.Load(),
	}
}

// Evaluator runs bit-parallel lattice evaluations with reusable
// scratch. The zero value is ready to use; scratch grows to the largest
// lattice seen and is reused across calls.
// An Evaluator is not safe for concurrent use — give each goroutine its
// own, or use the pooled Lattice.ImplementsFast wrapper.
type Evaluator struct {
	onw   []uint64 // per-site on-masks of the current word block
	reach []uint64 // per-site reached-from-source masks
	stale []bool   // per row: a neighbour row changed since its last scan

	// On-masks of the lattice loaded for deletion trials, word block
	// wi at del[wi·S:(wi+1)·S] for its S = delR·delC sites.
	del              []uint64
	delR, delC, delN int
}

// NewEvaluator returns an empty evaluator.
func NewEvaluator() *Evaluator { return &Evaluator{} }

func (e *Evaluator) grow(sites int) {
	if len(e.onw) < sites {
		buf := make([]uint64, 2*sites)
		e.onw, e.reach = buf[:sites:sites], buf[sites:]
		e.stale = make([]bool, sites)
	}
}

// buildOnWord fills e.onw for word block wi. Sites at index ≥ filled
// (a partial fill during the optimal search) get fillMask instead of
// their own mask; full evaluations pass filled = len(sites).
func (e *Evaluator) buildOnWord(l *Lattice, wi int, vm uint64, filled int, fillMask uint64) {
	onw := e.onw[:len(l.sites)]
	for i, s := range l.sites {
		if i >= filled {
			onw[i] = fillMask
			continue
		}
		onw[i] = onMask(s, wi, vm)
	}
}

// percolate runs the scanline kernel over e.onw: it percolates one
// word block to fixpoint and returns the sink mask, bit a set iff a
// source-to-sink path of conducting sites exists under assignment
// (wi<<6 | a), top row → bottom row over 4-connected sites. When
// bounded, it stops with ok=false after the first pass whose sink mask
// leaves limit (reach only grows, so any excess is permanent).
//
// Passes alternate down and up the rows. Each visited row first gathers
// what its conducting sites receive from the rows above and below (the
// top plate feeds row 0), then closes the row left→right and
// right→left, so a pass follows a path through any number of
// horizontal runs and vertical steps in its own direction. A row whose
// sites gain nothing from outside the row is left as it is: its reach
// is already closed. A row is not even gathered again until a
// neighbouring row has changed since its last scan. A pass in which no
// row gains certifies the least fixpoint, so the pass count tracks the
// number of vertical direction reversals in the longest percolation
// path.
func (e *Evaluator) percolate(R, C int, bounded bool, limit uint64) (sink uint64, ok bool) {
	sites := R * C
	onw, reach := e.onw[:sites], e.reach[:sites]
	clear(reach)
	sinkOr := func() uint64 {
		var s uint64
		for i := sites - C; i < sites; i++ {
			s |= reach[i]
		}
		return s
	}
	stale := e.stale[:R]
	for i := range stale {
		stale[i] = true
	}
	for down := true; ; down = !down {
		changed := false
		for k := 0; k < R; k++ {
			r := k
			if !down {
				r = R - 1 - k
			}
			if !stale[r] {
				continue
			}
			stale[r] = false
			// A missing neighbour row reads as the row itself, which
			// offers it nothing new; the top plate reads as the row's
			// own on-masks.
			on, row := onw[r*C:(r+1)*C], reach[r*C:(r+1)*C]
			above, below := on, row
			if r > 0 {
				above = reach[(r-1)*C : r*C]
			}
			if r < R-1 {
				below = reach[(r+1)*C : (r+2)*C]
			}
			if scanRow(on, row, above, below) {
				changed = true
				if r > 0 {
					stale[r-1] = true
				}
				if r < R-1 {
					stale[r+1] = true
				}
			}
		}
		if !changed {
			return sinkOr(), true
		}
		if bounded {
			if s := sinkOr(); s&^limit != 0 {
				return s, false
			}
		}
	}
}

// scanRow gathers into row what its conducting sites receive from the
// rows above and below, and when any site gained, closes the row
// left→right, then right→left. It reports whether any site gained.
func scanRow(on, row, above, below []uint64) bool {
	C := len(on)
	row, above, below = row[:C], above[:C], below[:C]
	var gained uint64
	for c, o := range on {
		g := (above[c] | below[c]) & o &^ row[c]
		row[c] |= g
		gained |= g
	}
	if gained == 0 {
		return false
	}
	carry := row[0]
	for c := 1; c < C; c++ {
		carry = row[c] | carry&on[c]
		row[c] = carry
	}
	// carry is row[C-1] here, where the right-to-left run starts.
	for c := C - 2; c >= 0; c-- {
		carry = row[c] | carry&on[c]
		row[c] = carry
	}
	return true
}

// Implements reports whether l computes f top-to-bottom. It proceeds
// word block by word block and exits on the first mismatching word —
// inside a block as soon as the reached set overshoots f (reach only
// grows), or at the block's fixpoint when it undershoots — which makes
// the failing trials of PostReduce cheap.
func (e *Evaluator) Implements(l *Lattice, f truthtab.TT) bool {
	e.grow(len(l.sites))
	vm := validMask(f.NumVars())
	return e.implements(l.R, l.C, f, func(wi int) { e.buildOnWord(l, wi, vm, len(l.sites), 0) })
}

// implements checks, word block by word block, that the R×C on-masks
// fill(wi) writes into e.onw percolate to f's word wi.
func (e *Evaluator) implements(R, C int, f truthtab.TT, fill func(wi int)) bool {
	ctrFastImplements.Add(1)
	W := f.NumWords()
	for wi := 0; wi < W; wi++ {
		fill(wi)
		fw := f.Word(wi)
		if sink, ok := e.percolate(R, C, true, fw); !ok || sink != fw {
			ctrWordBlocks.Add(uint64(wi + 1))
			return false
		}
	}
	ctrWordBlocks.Add(uint64(W))
	return true
}

// LoadDeletions computes the on-masks of l over n variables once per
// word block, for the deletion trials of ImplementsWithoutRow/Col that
// follow. The trials read these masks, not l: load again after l
// changes.
func (e *Evaluator) LoadDeletions(l *Lattice, n int) {
	S, W, vm := len(l.sites), numWords(n), validMask(n)
	e.grow(S)
	if cap(e.del) < W*S {
		e.del = make([]uint64, W*S)
	}
	e.del = e.del[:W*S]
	for wi := 0; wi < W; wi++ {
		block := e.del[wi*S : (wi+1)*S]
		for i, s := range l.sites {
			block[i] = onMask(s, wi, vm)
		}
	}
	e.delR, e.delC, e.delN = l.R, l.C, n
}

// ImplementsWithoutRow reports whether the lattice of the last
// LoadDeletions, with row r deleted, computes f, without building that
// lattice: the trial copies the loaded on-masks around row r. The
// lattice must have at least two rows. It counts as one Implements in
// the evaluation counters.
func (e *Evaluator) ImplementsWithoutRow(r int, f truthtab.TT) bool {
	if e.delR < 2 || r < 0 || r >= e.delR {
		panic("lattice: ImplementsWithoutRow needs an existing row of a lattice with two or more")
	}
	return e.implementsWithout(r, -1, f)
}

// ImplementsWithoutCol is ImplementsWithoutRow for column c.
func (e *Evaluator) ImplementsWithoutCol(c int, f truthtab.TT) bool {
	if e.delC < 2 || c < 0 || c >= e.delC {
		panic("lattice: ImplementsWithoutCol needs an existing column of a lattice with two or more")
	}
	return e.implementsWithout(-1, c, f)
}

// implementsWithout is Implements on the loaded lattice minus row
// skipRow or column skipCol (−1 for the other).
func (e *Evaluator) implementsWithout(skipRow, skipCol int, f truthtab.TT) bool {
	if f.NumVars() != e.delN {
		panic("lattice: deletion trial over another variable count than LoadDeletions")
	}
	R0, C0 := e.delR, e.delC
	R, C := R0, C0
	if skipRow >= 0 {
		R--
	} else {
		C--
	}
	onw := e.onw[:R*C]
	return e.implements(R, C, f, func(wi int) {
		block := e.del[wi*R0*C0 : (wi+1)*R0*C0]
		if skipRow >= 0 {
			k := copy(onw, block[:skipRow*C0])
			copy(onw[k:], block[(skipRow+1)*C0:])
			return
		}
		k := 0
		for r := 0; r < R0; r++ {
			row := block[r*C0 : (r+1)*C0]
			k += copy(onw[k:], row[:skipCol])
			k += copy(onw[k:], row[skipCol+1:])
		}
	})
}

// FeasiblePartial applies the optimal search's two monotone prunes to a
// partial fill — sites at index ≥ filled are undecided — in one
// bit-parallel pass per word block: with undecided sites conducting the
// lattice must still cover f (else no completion can add the missing
// paths), and with undecided sites blocking it must stay within f (else
// no completion can remove the excess ones).
func (e *Evaluator) FeasiblePartial(l *Lattice, filled int, f truthtab.TT) bool {
	ctrFastImplements.Add(1)
	e.grow(len(l.sites))
	n := f.NumVars()
	W, vm := numWords(n), validMask(n)
	blocks := uint64(0)
	defer func() { ctrWordBlocks.Add(blocks) }()
	for wi := 0; wi < W; wi++ {
		fw := f.Word(wi)
		if fw != 0 {
			e.buildOnWord(l, wi, vm, filled, vm)
			opt, _ := e.percolate(l.R, l.C, false, 0)
			blocks++
			if fw&^opt != 0 {
				return false
			}
		}
		if fw != vm {
			e.buildOnWord(l, wi, vm, filled, 0)
			blocks++
			if sink, ok := e.percolate(l.R, l.C, true, fw); !ok || sink&^fw != 0 {
				return false
			}
		}
	}
	return true
}

// PercolateMasks percolates one word of caller-supplied per-site
// conduction masks (row-major, R*C words, bit t = site conducts in
// trial t) to fixpoint — top row to bottom row, 4-connected — and
// returns the sink mask: bit t set iff a source-to-sink path of
// conducting sites exists in trial t. This is the entry point for
// callers whose 64 lanes are not consecutive truth-table assignments,
// such as redundancy's packed Monte Carlo trials; on is copied into the
// evaluator's scratch and not modified.
func (e *Evaluator) PercolateMasks(R, C int, on []uint64) uint64 {
	if len(on) != R*C {
		panic("lattice: PercolateMasks needs R*C site masks")
	}
	e.grow(len(on))
	copy(e.onw[:len(on)], on)
	sink, _ := e.percolate(R, C, false, 0)
	ctrWordBlocks.Add(1)
	return sink
}

// evalPool backs the pooled convenience wrappers so call sites that
// cannot hold an Evaluator still skip per-call scratch allocation.
var evalPool = sync.Pool{New: func() any { return NewEvaluator() }}

// GetEvaluator takes an evaluator from the pool behind ImplementsFast,
// for a caller that runs a series of evaluations; hand it back
// with PutEvaluator.
func GetEvaluator() *Evaluator { return evalPool.Get().(*Evaluator) }

// PutEvaluator returns an evaluator taken with GetEvaluator.
func PutEvaluator(e *Evaluator) { evalPool.Put(e) }

// ImplementsFast is Implements via a pooled bit-parallel evaluator,
// with early exit on the first mismatching word.
func (l *Lattice) ImplementsFast(f truthtab.TT) bool {
	e := evalPool.Get().(*Evaluator)
	ok := e.Implements(l, f)
	evalPool.Put(e)
	return ok
}
