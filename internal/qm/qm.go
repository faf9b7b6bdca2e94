// Package qm implements exact two-level (SOP) minimization with the
// Quine–McCluskey procedure: prime implicant generation followed by a
// branch-and-bound minimum covering step with essential-prime and
// dominance reductions.
//
// The minimizer is exact — it returns a cover with the minimum number of
// products, breaking ties by total literal count — and is therefore the
// reference used for the paper's array-size formulas (Fig. 3 and Fig. 5),
// which assume minimized SOPs. Cost grows exponentially with variable
// count; callers should bound n (see Options) and fall back to package
// isop beyond.
package qm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// Options bound the exact minimization effort.
type Options struct {
	MaxVars   int // reject functions with more variables (default 12)
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

// implicant is a cube in (value, don't-care-mask) representation.
type implicant struct {
	val uint64 // variable values on cared positions
	dc  uint64 // positions not in the cube
}

func (im implicant) toCube(n int) cube.Cube {
	var c cube.Cube
	for v := 0; v < n; v++ {
		bit := uint64(1) << uint(v)
		if im.dc&bit != 0 {
			continue
		}
		if im.val&bit != 0 {
			c.Pos |= bit
		} else {
			c.Neg |= bit
		}
	}
	return c
}

// Primes returns all prime implicants of on ∪ dc (the don't-care set
// participates in prime formation but needs no covering).
func Primes(on, dc truthtab.TT, opts Options) ([]cube.Cube, error) {
	if err := checkVars(on, dc, opts); err != nil {
		return nil, err
	}
	n := on.NumVars()
	care := on.Or(dc)
	if care.IsZero() {
		return nil, nil
	}
	if care.IsOne() {
		return []cube.Cube{cube.Universe}, nil
	}

	// The generation loop keeps the frontier in a slice sorted by
	// (dc mask, popcount, value): pairing partners then live in
	// adjacent popcount runs of the same dc run, and duplicates of the
	// next generation are adjacent in that order too, so one sort per
	// generation both orders it and lets it compact — no
	// per-generation maps. The cur/next backing arrays and the combined
	// flags are swapped and reused across generations, so steady-state
	// work allocates only when a generation outgrows every previous one.
	cur := make([]implicant, 0, care.CountOnes())
	care.ForEachMinterm(func(a uint64) {
		cur = append(cur, implicant{val: a})
	})
	slices.SortFunc(cur, frontierOrder)
	var (
		next     []implicant
		combined []bool
		primes   []cube.Cube
	)
	for len(cur) > 0 {
		if opts.MaxPrimes > 0 && len(cur) > opts.MaxPrimes {
			return nil, fmt.Errorf("qm: implicant frontier %d exceeds limit %d", len(cur), opts.MaxPrimes)
		}
		if cap(combined) < len(cur) {
			combined = make([]bool, len(cur))
		} else {
			combined = combined[:len(cur)]
			clear(combined)
		}
		next = next[:0]
		for gs := 0; gs < len(cur); {
			ge := gs
			for ge < len(cur) && cur[ge].dc == cur[gs].dc {
				ge++
			}
			// Pair each popcount run with the run one higher.
			for ls := gs; ls < ge; {
				pc := bits.OnesCount64(cur[ls].val)
				le := ls
				for le < ge && bits.OnesCount64(cur[le].val) == pc {
					le++
				}
				he := le
				for he < ge && bits.OnesCount64(cur[he].val) == pc+1 {
					he++
				}
				for i := ls; i < le; i++ {
					for j := le; j < he; j++ {
						diff := cur[i].val ^ cur[j].val
						if bits.OnesCount64(diff) != 1 {
							continue
						}
						combined[i], combined[j] = true, true
						next = append(next, implicant{val: cur[i].val &^ diff, dc: cur[i].dc | diff})
					}
				}
				ls = le
			}
			gs = ge
		}
		for i, im := range cur {
			if !combined[i] {
				primes = append(primes, im.toCube(n))
			}
		}
		// Order the next generation and dedup it (one merged implicant
		// arises once per don't-care bit) by compacting.
		slices.SortFunc(next, frontierOrder)
		next = slices.Compact(next)
		cur, next = next, cur
	}
	// Deterministic order for reproducible covers.
	slices.SortFunc(primes, func(a, b cube.Cube) int {
		if a.Pos != b.Pos {
			return cmp.Compare(a.Pos, b.Pos)
		}
		return cmp.Compare(a.Neg, b.Neg)
	})
	return primes, nil
}

// frontierOrder sorts implicants by (dc mask, popcount, value).
func frontierOrder(a, b implicant) int {
	if a.dc != b.dc {
		return cmp.Compare(a.dc, b.dc)
	}
	if d := bits.OnesCount64(a.val) - bits.OnesCount64(b.val); d != 0 {
		return d
	}
	return cmp.Compare(a.val, b.val)
}

// checkVars rejects on/dc pairs of different arity and functions over
// more than opts.MaxVars variables.
func checkVars(on, dc truthtab.TT, opts Options) error {
	n := on.NumVars()
	if dc.NumVars() != n {
		return fmt.Errorf("qm: on/dc variable mismatch")
	}
	if opts.MaxVars > 0 && n > opts.MaxVars {
		return fmt.Errorf("qm: %d variables exceeds limit %d", n, opts.MaxVars)
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
