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

// varWord[v] is the word pattern of variable v < 6: bit a is bit v of a.
var varWord = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
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
		inWord &^= varWord[bits.TrailingZeros(uint(m))]
	}
	return inWord, d >> 6
}

// Primes returns all prime implicants of on ∪ dc (the don't-care set
// participates in prime formation but needs no covering), sorted by
// cube.Compare.
func Primes(on, dc truthtab.TT, opts Options) ([]cube.Cube, error) {
	if err := checkVars(on, dc, opts); err != nil {
		return nil, err
	}
	n, W := on.NumVars(), on.NumWords()
	vm := ^uint64(0)
	if n < 6 {
		vm = uint64(1)<<(1<<n) - 1
	}
	ps := planePool.Get().(*planes)
	defer planePool.Put(ps)
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
		return []cube.Cube{cube.Universe}, nil
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
	return slices.Clone(primes), nil
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
		s, hi := uint(1)<<v, varWord[v]
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
	primes, err := Primes(on, dc, opts)
	if err != nil {
		return nil, err
	}
	if on.Or(dc).IsOne() {
		return cube.Cover{cube.Universe}, nil
	}
	if opts.MaxCoverPrimes > 0 && len(primes) > opts.MaxCoverPrimes {
		return nil, fmt.Errorf("qm: %d primes exceeds covering limit %d", len(primes), opts.MaxCoverPrimes)
	}
	ms := on.Minterms()
	sel, complete := solveCover(primes, ms, opts.MaxCoverWork)
	if !complete {
		return nil, fmt.Errorf("qm: covering search exceeded %d work units", opts.MaxCoverWork)
	}
	out := make(cube.Cover, 0, len(sel))
	for _, i := range sel {
		out = append(out, primes[i])
	}
	out.Sort()
	return out, nil
}

// MinimizeTT minimizes a completely specified function.
func MinimizeTT(f truthtab.TT, opts Options) (cube.Cover, error) {
	return Minimize(f, truthtab.Zero(f.NumVars()), opts)
}

// --- minimum covering ---

type coverState struct {
	primeCov [][]uint64 // per prime: bitset over minterm columns
	primeLit []int
	nCols    int
	// frames[d] is the state of the search node at depth d: the node
	// reduces its own frame in place and writes each branch's child
	// state into frames[d+1], so the search copies no state per node.
	frames []coverFrame
	// masked[i] is prime i's coverage of the remaining columns, computed
	// once per dominance sweep for every active prime.
	masked   [][]uint64
	sel      []int // primes chosen on the current search path
	bestSel  []int
	bestCost coverCost
	work     int // abstract work spent
	maxWork  int
}

type coverFrame struct {
	remaining []uint64 // minterm columns still to cover
	active    []bool   // primes still eligible
}

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

// bitsets carves n bitsets of w words each out of one allocation.
func bitsets(n, w int) [][]uint64 {
	buf := make([]uint64, n*w)
	out := make([][]uint64, n)
	for i := range out {
		out[i] = buf[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// solveCover picks a minimum subset of primes covering all minterm
// columns. Exact branch and bound over the cyclic core after essential
// and dominance reductions. The second result is false when the node
// budget was exhausted before the search completed (the best solution
// found so far may be suboptimal, so callers treat it as failure).
func solveCover(primes []cube.Cube, ms []uint64, maxWork int) ([]int, bool) {
	nCols := len(ms)
	if maxWork <= 0 {
		maxWork = 1 << 40
	}
	w := bitsetWords(nCols)
	st := &coverState{nCols: nCols, bestCost: coverCost{cubes: 1 << 30}, maxWork: maxWork}
	st.primeCov = bitsets(len(primes), w)
	st.masked = bitsets(len(primes), w)
	st.primeLit = make([]int, len(primes))
	for i, p := range primes {
		for j, m := range ms {
			if p.Eval(m) {
				st.primeCov[i][j>>6] |= 1 << uint(j&63)
			}
		}
		st.primeLit[i] = p.NumLiterals()
	}
	root := st.frame(0)
	for j := 0; j < nCols; j++ {
		root.remaining[j>>6] |= 1 << uint(j&63)
	}
	for i := range root.active {
		root.active[i] = true
	}
	st.search(0, coverCost{})
	sel := slices.Clone(st.bestSel)
	slices.Sort(sel)
	return sel, st.work < st.maxWork
}

// frame returns the scratch frame of depth d, allocating it the first
// time the search reaches that depth.
func (st *coverState) frame(d int) coverFrame {
	if d == len(st.frames) {
		st.frames = append(st.frames, coverFrame{
			remaining: make([]uint64, bitsetWords(st.nCols)),
			active:    make([]bool, len(st.primeCov)),
		})
	}
	return st.frames[d]
}

// search explores the node whose state is frames[d]; st.sel holds the
// primes chosen on the path to it.
func (st *coverState) search(d int, cost coverCost) {
	remaining, active := st.frames[d].remaining, st.frames[d].active
	nAct := 0
	for _, a := range active {
		if a {
			nAct++
		}
	}
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
		changed := false
		// Essential columns: covered by exactly one active prime.
		ess := -1
		for j := 0; j < st.nCols && ess < 0; j++ {
			if remaining[j>>6]>>uint(j&63)&1 == 0 {
				continue
			}
			cnt, last := 0, -1
			for i, a := range active {
				if a && st.primeCov[i][j>>6]>>uint(j&63)&1 == 1 {
					cnt++
					last = i
					if cnt > 1 {
						break
					}
				}
			}
			if cnt == 0 {
				return // uncoverable (cannot happen with all primes)
			}
			if cnt == 1 {
				ess = last
			}
		}
		if ess >= 0 {
			st.sel = append(st.sel, ess)
			cost.cubes++
			cost.literals += st.primeLit[ess]
			andNot(remaining, st.primeCov[ess])
			active[ess] = false
			changed = true
		}
		if !changed {
			changed = st.dropDominated(remaining, active)
		}
		if !changed {
			break
		}
	}
	// Branch on the hardest column (fewest covering primes).
	bestJ, bestCnt := -1, 1<<30
	for j := 0; j < st.nCols; j++ {
		if remaining[j>>6]>>uint(j&63)&1 == 0 {
			continue
		}
		cnt := 0
		for i, a := range active {
			if a && st.primeCov[i][j>>6]>>uint(j&63)&1 == 1 {
				cnt++
			}
		}
		if cnt < bestCnt {
			bestCnt, bestJ = cnt, j
		}
	}
	if bestJ < 0 {
		return
	}
	child := st.frame(d + 1)
	path := len(st.sel)
	for i, a := range active {
		if !a || st.primeCov[i][bestJ>>6]>>uint(bestJ&63)&1 == 0 {
			continue
		}
		copy(child.remaining, remaining)
		andNot(child.remaining, st.primeCov[i])
		copy(child.active, active)
		child.active[i] = false
		st.sel = append(st.sel[:path], i)
		st.search(d+1, coverCost{cost.cubes + 1, cost.literals + st.primeLit[i]})
	}
}

// dropDominated runs one row-dominance sweep and reports whether it
// deactivated any prime: prime b goes when it covers no remaining
// column, or when some prime a covers a superset of b's remaining
// columns at no higher literal cost.
func (st *coverState) dropDominated(remaining []uint64, active []bool) bool {
	for i, a := range active {
		if a {
			for k, x := range st.primeCov[i] {
				st.masked[i][k] = x & remaining[k]
			}
		}
	}
	changed := false
	for b := range active {
		if !active[b] {
			continue
		}
		covB := st.masked[b]
		if isEmpty(covB) {
			active[b] = false
			changed = true
			continue
		}
		for a := range active {
			if a == b || !active[a] || st.primeLit[a] > st.primeLit[b] {
				continue
			}
			covA := st.masked[a]
			if !containsBits(covA, covB) {
				continue
			}
			// Equal coverage and cost: keep the lower index only, so
			// the pair does not eliminate itself.
			if st.primeLit[a] == st.primeLit[b] && a > b && containsBits(covB, covA) {
				continue
			}
			active[b] = false
			changed = true
			break
		}
	}
	return changed
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

// containsBits reports a ⊇ b.
func containsBits(a, b []uint64) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}
