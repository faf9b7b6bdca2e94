// Package qm implements exact two-level (SOP) minimization with the
// Quine–McCluskey procedure: prime implicant generation followed by a
// branch-and-bound minimum covering step with essential-prime and
// dominance reductions.
//
// Primes are generated from implicant planes rather than by pairwise
// merging. For every don't-care mask D the plane I_D is a truth table
// whose bit m says that the cube through m with free variables D lies
// in on ∪ dc. I_∅ is on ∪ dc itself, and I_{D∪{v}} = I_D ∧ flip_v(I_D),
// where flip_v complements variable v of the index: a shift and a mask
// inside a 64-bit word, a word swap across words. A plane that is zero
// has no nonzero extensions and is never extended. The implicants with
// k free variables are the planes' canonical points (free bits zero)
// over the masks with |D| = k — exactly the k-th merge generation of
// the textbook procedure — and a prime is a canonical point of I_D set
// in no I_{D∪{v}}.
//
// The minimizer is exact — it returns a cover with the minimum number of
// products, breaking ties by total literal count — and is therefore the
// reference used for the paper's array-size formulas (Fig. 3 and Fig. 5),
// which assume minimized SOPs. Cost grows exponentially with variable
// count; callers should bound n (see Options) and fall back to package
// isop beyond.
package qm

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// maxPlaneVars is the most variables Primes accepts: its planes take
// 2^n × 2^n bits, 2 MiB at 12 variables.
const maxPlaneVars = 12

// Options bound the exact minimization effort.
type Options struct {
	// MaxVars rejects functions with more variables (default 12).
	// Values ≤ 0 or above 12 mean 12: the implicant planes take
	// 2^n × 2^n bits, 2 MiB at 12 variables and 32 MiB at 14.
	MaxVars   int
	MaxPrimes int // abort if prime generation exceeds this (default 50000)
	// MaxCoverPrimes rejects covering problems with more primes than
	// this before the branch-and-bound starts: large prime sets are
	// where exact covering stops being tractable, and failing fast
	// keeps the heuristic fallback cheap (default 96).
	MaxCoverPrimes int
	// MaxCoverWork bounds the covering branch-and-bound effort in
	// abstract work units (each node costs ~active-primes²/64 units, so
	// the bound tracks wall time across instance sizes). Default 2e6.
	MaxCoverWork int
}

// DefaultOptions are safe interactive limits: beyond them callers fall
// back to the ISOP heuristic (see latsynth.Covers).
func DefaultOptions() Options {
	return Options{MaxVars: 12, MaxPrimes: 50000, MaxCoverPrimes: 96, MaxCoverWork: 2_000_000}
}

// planes is the scratch of Primes. Plane D occupies w[D·W:(D+1)·W] for
// W words per table; bit D of live is set when plane D was written by
// the current call and is nonzero; covered is the one table the prime
// extraction reuses for every mask; primes collects the result before
// it is copied out. Planes of masks that are not live are stale.
type planes struct {
	w       []uint64
	live    []uint64
	covered []uint64
	primes  []cube.Cube
}

// planePool shares plane scratch across calls and goroutines: at most
// 2 MiB per concurrent Primes call, allocated once.
var planePool = sync.Pool{New: func() any { return new(planes) }}

// reset sizes the scratch for n variables of W words each and marks
// every plane stale.
func (ps *planes) reset(n, W int) {
	if need := W << n; cap(ps.w) < need {
		ps.w = make([]uint64, need)
	} else {
		ps.w = ps.w[:need]
	}
	nl := (1<<n + 63) / 64
	if cap(ps.live) < nl {
		ps.live = make([]uint64, nl)
	} else {
		ps.live = ps.live[:nl]
		clear(ps.live)
	}
	if cap(ps.covered) < W {
		ps.covered = make([]uint64, W)
	}
	ps.covered = ps.covered[:W]
}

func (ps *planes) plane(d, W int) []uint64 { return ps.w[d*W : (d+1)*W : (d+1)*W] }

func (ps *planes) isLive(d int) bool { return ps.live[d>>6]>>(d&63)&1 == 1 }

// canonical returns the points of plane d with every free variable
// zero: the in-word mask (restricted to vm) and the word-index bits a
// canonical word has clear.
func canonical(d int, vm uint64) (inWord uint64, wordFree int) {
	inWord = vm
	for m := d & 63; m != 0; m &= m - 1 {
		inWord &^= truthtab.VarWord(bits.TrailingZeros(uint(m)))
	}
	return inWord, d >> 6
}

// primesOf returns all prime implicants of on ∪ dc (the don't-care set
// participates in prime formation but needs no covering), sorted by
// cube.Compare. The result aliases the scratch's ps.primes.
func (ps *planes) primesOf(on, dc truthtab.TT, opts Options) ([]cube.Cube, error) {
	if err := checkVars(on, dc, opts); err != nil {
		return nil, err
	}
	n, W := on.NumVars(), on.NumWords()
	vm := ^uint64(0)
	if n < 6 {
		vm = uint64(1)<<(1<<n) - 1
	}
	ps.reset(n, W)
	care := ps.plane(0, W)
	zero, one := true, true
	for i := range care {
		care[i] = on.Word(i) | dc.Word(i)
		zero = zero && care[i] == 0
		one = one && care[i] == vm
	}
	if zero {
		return nil, nil
	}
	if one {
		ps.primes = append(ps.primes[:0], cube.Universe)
		return ps.primes, nil
	}
	for _, k := range ps.build(n, W, vm) {
		if k == 0 {
			break
		}
		if opts.MaxPrimes > 0 && k > opts.MaxPrimes {
			return nil, fmt.Errorf("qm: implicant frontier %d exceeds limit %d", k, opts.MaxPrimes)
		}
	}
	primes := ps.extract(n, W, vm)
	// Deterministic order for reproducible covers.
	slices.SortFunc(primes, cube.Compare)
	return primes, nil
}

// build writes every live plane, plane 0 (on ∪ dc) given, and returns
// the implicant count per number of free variables: the frontier sizes
// of the pairwise merge generations.
func (ps *planes) build(n, W int, vm uint64) (frontier [maxPlaneVars + 1]int) {
	for d := 0; d < 1<<n; d++ {
		p := ps.plane(d, W)
		if d > 0 {
			v := bits.TrailingZeros(uint(d))
			parent := d &^ (1 << v)
			if !ps.isLive(parent) || !flipAnd(p, ps.plane(parent, W), v) {
				continue
			}
		}
		ps.live[d>>6] |= 1 << (d & 63)
		inWord, wordFree := canonical(d, vm)
		k := 0
		for wi, x := range p {
			if wi&wordFree == 0 {
				k += bits.OnesCount64(x & inWord)
			}
		}
		frontier[bits.OnesCount(uint(d))] += k
	}
	return frontier
}

// flipAnd sets dst = src ∧ flip_v(src) and reports whether it is
// nonzero.
func flipAnd(dst, src []uint64, v int) bool {
	var nz uint64
	if v < 6 {
		s, hi := uint(1)<<v, truthtab.VarWord(v)
		for i, x := range src {
			y := x & (x&hi>>s | x&^hi<<s)
			dst[i] = y
			nz |= y
		}
		return nz != 0
	}
	stride := 1 << (v - 6)
	for i, x := range src {
		y := x & src[i^stride]
		dst[i] = y
		nz |= y
	}
	return nz != 0
}

// extract collects, for every live plane D, the canonical points that
// no live plane D ∪ {v} contains: the primes with free variables D.
func (ps *planes) extract(n, W int, vm uint64) []cube.Cube {
	full := uint64(1)<<n - 1
	cov := ps.covered
	ps.primes = ps.primes[:0]
	for d := 0; d < 1<<n; d++ {
		if !ps.isLive(d) {
			continue
		}
		inWord, wordFree := canonical(d, vm)
		clear(cov)
		for free := full &^ uint64(d); free != 0; free &= free - 1 {
			up := d | 1<<bits.TrailingZeros64(free)
			if !ps.isLive(up) {
				continue
			}
			for wi, x := range ps.plane(up, W) {
				cov[wi] |= x
			}
		}
		for wi, x := range ps.plane(d, W) {
			if wi&wordFree != 0 {
				continue
			}
			for m := x & inWord &^ cov[wi]; m != 0; m &= m - 1 {
				a := uint64(wi)<<6 | uint64(bits.TrailingZeros64(m))
				ps.primes = append(ps.primes, cube.Cube{Pos: a, Neg: full &^ a &^ uint64(d)})
			}
		}
	}
	return ps.primes
}

// checkVars rejects on/dc pairs of different arity and functions over
// more than opts.MaxVars variables (12 when unset or above 12).
func checkVars(on, dc truthtab.TT, opts Options) error {
	n := on.NumVars()
	if dc.NumVars() != n {
		return fmt.Errorf("qm: on/dc variable mismatch")
	}
	limit := opts.MaxVars
	if limit <= 0 || limit > maxPlaneVars {
		limit = maxPlaneVars
	}
	if n > limit {
		return fmt.Errorf("qm: %d variables exceeds limit %d", n, limit)
	}
	return nil
}

// Minimize returns a minimum SOP cover of the incompletely specified
// function (on, dc): the cover contains all of on, nothing outside
// on ∪ dc, uses the fewest possible products, and among those the fewest
// literals.
func Minimize(on, dc truthtab.TT, opts Options) (cube.Cover, error) {
	if err := checkVars(on, dc, opts); err != nil {
		return nil, err
	}
	if on.IsZero() {
		return cube.Cover{}, nil
	}
	ps := planePool.Get().(*planes)
	defer planePool.Put(ps)
	primes, err := ps.primesOf(on, dc, opts)
	if err != nil {
		return nil, err
	}
	// The universe is a prime exactly when on ∪ dc is the constant 1,
	// and then it is the only one.
	if len(primes) == 1 && primes[0].IsUniverse() {
		return cube.Cover{cube.Universe}, nil
	}
	if opts.MaxCoverPrimes > 0 && len(primes) > opts.MaxCoverPrimes {
		return nil, fmt.Errorf("qm: %d primes exceeds covering limit %d", len(primes), opts.MaxCoverPrimes)
	}
	sel, complete := solveCover(primes, on, opts.MaxCoverWork)
	if !complete {
		return nil, fmt.Errorf("qm: covering search exceeded %d work units", opts.MaxCoverWork)
	}
	// sel ascends and primes are sorted, so the cover comes out sorted.
	out := make(cube.Cover, len(sel))
	for k, i := range sel {
		out[k] = primes[i]
	}
	return out, nil
}

// MinimizeTT minimizes a completely specified function.
func MinimizeTT(f truthtab.TT, opts Options) (cube.Cover, error) {
	return Minimize(f, truthtab.Zero(f.NumVars()), opts)
}

// --- minimum covering ---

// coverState is a covering problem and its search scratch. The matrix
// is kept both ways as bitsets: row i holds the on-minterm columns
// prime i covers, column j the primes covering minterm j. A search
// node's state is a frame of two bitsets, the columns it has still to
// cover and the primes still eligible, so counting a column's
// coverers is a popcount of the column and the active set.
type coverState struct {
	cw, pw int      // words per bitset over columns, over primes
	rows   []uint64 // row i: rows[i·cw:(i+1)·cw]
	cols   []uint64 // column j: cols[j·pw:(j+1)·pw]
	lit    []int    // literal count per prime
	// masked holds, per active prime, its coverage of the remaining
	// columns (laid out like rows) and maskedN its popcount; both are
	// computed once per dominance sweep.
	masked  []uint64
	maskedN []int
	cand    []uint64 // one prime's dominator candidates
	// frames[d] is the state of the search node at depth d, remaining
	// columns (cw words) then active primes (pw words): the node reduces
	// its own frame in place and writes each branch's child state into
	// frames[d+1], so the search copies no state per node.
	frames   [][]uint64
	sel      []int // primes chosen on the current search path
	bestSel  []int
	bestCost coverCost
	work     int // abstract work spent
	maxWork  int
}

// coverPool shares covering scratch across calls and goroutines.
var coverPool = sync.Pool{New: func() any { return new(coverState) }}

type coverCost struct {
	cubes    int
	literals int
}

func (c coverCost) less(d coverCost) bool {
	if c.cubes != d.cubes {
		return c.cubes < d.cubes
	}
	return c.literals < d.literals
}

func bitsetWords(n int) int { return (n + 63) / 64 }

// resize returns buf with length n, reusing its storage when it can;
// the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// solveCover picks a minimum subset of primes covering every on-minterm
// of on. Exact branch and bound over the cyclic core after essential
// and dominance reductions. The second result is false when the work
// budget was exhausted before the search completed (the best solution
// found so far may be suboptimal, so callers treat it as failure).
func solveCover(primes []cube.Cube, on truthtab.TT, maxWork int) ([]int, bool) {
	if maxWork <= 0 {
		maxWork = 1 << 40
	}
	st := coverPool.Get().(*coverState)
	defer coverPool.Put(st)
	st.reset(primes, on, maxWork)
	st.search(0, coverCost{})
	sel := slices.Clone(st.bestSel)
	slices.Sort(sel)
	return sel, st.work < st.maxWork
}

// reset builds the covering matrix of primes over the on-minterms of on
// (column j is the j-th minterm in ascending order) and the root frame,
// every column remaining and every prime active, and starts a search
// with maxWork to spend.
func (st *coverState) reset(primes []cube.Cube, on truthtab.TT, maxWork int) {
	st.bestCost, st.work, st.maxWork = coverCost{cubes: 1 << 30}, 0, maxWork
	st.sel, st.bestSel = st.sel[:0], st.bestSel[:0]
	nP, nC := len(primes), int(on.CountOnes())
	st.cw, st.pw = bitsetWords(nC), bitsetWords(nP)
	st.rows = resize(st.rows, nP*st.cw)
	clear(st.rows)
	st.cols = resize(st.cols, nC*st.pw)
	clear(st.cols)
	st.masked = resize(st.masked, nP*st.cw)
	st.maskedN = resize(st.maskedN, nP)
	st.cand = resize(st.cand, st.pw)
	st.lit = resize(st.lit, nP)
	for i, p := range primes {
		st.lit[i] = p.NumLiterals()
	}
	base := 0 // the column of word block wi's first on-minterm
	for wi := range on.NumWords() {
		w := on.Word(wi)
		for i, p := range primes {
			for x := w & truthtab.ProductWord(p.Pos, p.Neg, wi); x != 0; x &= x - 1 {
				b := bits.TrailingZeros64(x)
				j := base + bits.OnesCount64(w&(1<<b-1))
				st.rows[i*st.cw+j>>6] |= 1 << (j & 63)
				st.cols[j*st.pw+i>>6] |= 1 << (i & 63)
			}
		}
		base += bits.OnesCount64(w)
	}
	remaining, active := st.frame(0)
	fill(remaining, nC)
	fill(active, nP)
}

// fill sets bits 0..n-1 of set and clears the rest.
func fill(set []uint64, n int) {
	clear(set)
	for i := range n {
		set[i>>6] |= 1 << (i & 63)
	}
}

func (st *coverState) row(i int) []uint64 {
	return st.rows[i*st.cw : (i+1)*st.cw : (i+1)*st.cw]
}

func (st *coverState) col(j int) []uint64 {
	return st.cols[j*st.pw : (j+1)*st.pw : (j+1)*st.pw]
}

func (st *coverState) maskedRow(i int) []uint64 {
	return st.masked[i*st.cw : (i+1)*st.cw : (i+1)*st.cw]
}

// frame returns the remaining columns and active primes of depth d,
// allocating that depth's storage the first time any search reaches it.
func (st *coverState) frame(d int) (remaining, active []uint64) {
	fw := st.cw + st.pw
	if d == len(st.frames) {
		st.frames = append(st.frames, nil)
	}
	st.frames[d] = resize(st.frames[d], fw)
	f := st.frames[d]
	return f[:st.cw:st.cw], f[st.cw:]
}

// coverers returns how many active primes cover column j and, when
// that is one, which.
func (st *coverState) coverers(j int, active []uint64) (n, only int) {
	for k, c := range st.col(j) {
		x := c & active[k]
		if x != 0 {
			only = k<<6 | bits.TrailingZeros64(x)
		}
		n += bits.OnesCount64(x)
	}
	return n, only
}

// search explores the node whose state is frames[d]; st.sel holds the
// primes chosen on the path to it.
func (st *coverState) search(d int, cost coverCost) {
	remaining, active := st.frame(d)
	nAct := onesCount(active)
	st.work += 1 + nAct*nAct/64
	if st.work >= st.maxWork {
		return
	}
	// Reduction loop: essentials and dominance to fixpoint.
	for {
		if isEmpty(remaining) {
			if cost.less(st.bestCost) {
				st.bestCost = cost
				st.bestSel = append(st.bestSel[:0], st.sel...)
			}
			return
		}
		if !cost.less(st.bestCost) {
			return // bound
		}
		// Essential columns: covered by exactly one active prime.
		ess := -1
	scan:
		for k, w := range remaining {
			for ; w != 0; w &= w - 1 {
				switch n, only := st.coverers(k<<6|bits.TrailingZeros64(w), active); n {
				case 0:
					return // uncoverable (cannot happen with all primes)
				case 1:
					ess = only
					break scan
				}
			}
		}
		if ess >= 0 {
			st.sel = append(st.sel, ess)
			cost.cubes++
			cost.literals += st.lit[ess]
			andNot(remaining, st.row(ess))
			active[ess>>6] &^= 1 << (ess & 63)
			continue
		}
		if !st.dropDominated(remaining, active) {
			break
		}
	}
	// Branch on the hardest column (fewest covering primes, the first
	// such). The reduction left every remaining column at least two
	// coverers, so the first column with two is the one.
	bestJ, bestN := -1, 1<<30
pick:
	for k, w := range remaining {
		for ; w != 0; w &= w - 1 {
			j := k<<6 | bits.TrailingZeros64(w)
			if n, _ := st.coverers(j, active); n < bestN {
				bestN, bestJ = n, j
				if n == 2 {
					break pick
				}
			}
		}
	}
	childRem, childAct := st.frame(d + 1)
	path := len(st.sel)
	for k, c := range st.col(bestJ) {
		for x := c & active[k]; x != 0; x &= x - 1 {
			i := k<<6 | bits.TrailingZeros64(x)
			copy(childRem, remaining)
			andNot(childRem, st.row(i))
			copy(childAct, active)
			childAct[k] &^= 1 << (i & 63)
			st.sel = append(st.sel[:path], i)
			st.search(d+1, coverCost{cost.cubes + 1, cost.literals + st.lit[i]})
		}
	}
}

// dropDominated runs one row-dominance sweep and reports whether it
// deactivated any prime: prime b goes when it covers no remaining
// column, or when some prime a covers a superset of b's remaining
// columns at no higher literal cost. The primes covering all of b's
// remaining columns are the active ones in every such column's set.
func (st *coverState) dropDominated(remaining, active []uint64) bool {
	for k, a := range active {
		for ; a != 0; a &= a - 1 {
			i := k<<6 | bits.TrailingZeros64(a)
			m, n := st.maskedRow(i), 0
			for w, x := range st.row(i) {
				m[w] = x & remaining[w]
				n += bits.OnesCount64(m[w])
			}
			st.maskedN[i] = n
		}
	}
	changed := false
	for k, snapshot := range active {
		// Only b itself leaves the active set while b is examined, so
		// the word's primes above b are still active when reached.
		for ; snapshot != 0; snapshot &= snapshot - 1 {
			b := k<<6 | bits.TrailingZeros64(snapshot)
			if st.maskedN[b] == 0 || st.dominated(b, active) {
				active[k] &^= 1 << (b & 63)
				changed = true
			}
		}
	}
	return changed
}

// dominated reports whether an active prime other than b covers every
// remaining column of b at no higher literal cost. Of two primes with
// equal coverage and cost only the lower index dominates, so the pair
// does not eliminate itself, and b does not dominate itself.
func (st *coverState) dominated(b int, active []uint64) bool {
	cand := st.cand
	copy(cand, active)
	for w, y := range st.maskedRow(b) {
		for ; y != 0; y &= y - 1 {
			var nz uint64
			for t, c := range st.col(w<<6 | bits.TrailingZeros64(y)) {
				cand[t] &= c
				nz |= cand[t]
			}
			if nz == 0 {
				return false
			}
		}
	}
	lb, nb := st.lit[b], st.maskedN[b]
	for t, y := range cand {
		for ; y != 0; y &= y - 1 {
			a := t<<6 | bits.TrailingZeros64(y)
			// a covers b's columns, so equal counts mean equal coverage.
			if st.lit[a] < lb || st.lit[a] == lb && (a < b || st.maskedN[a] != nb) {
				return true
			}
		}
	}
	return false
}

func onesCount(set []uint64) int {
	n := 0
	for _, x := range set {
		n += bits.OnesCount64(x)
	}
	return n
}

func isEmpty(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

func andNot(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}
