package qm

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nanoxbar/internal/cube"
	"nanoxbar/internal/truthtab"
)

// implicant is a cube in (value, don't-care-mask) representation.
type implicant struct {
	val uint64 // variable values on cared positions
	dc  uint64 // positions not in the cube
}

func (im implicant) toCube(n int) cube.Cube {
	full := uint64(1)<<n - 1
	return cube.Cube{Pos: im.val &^ im.dc, Neg: full &^ im.val &^ im.dc}
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

// primesOracle is the textbook Quine–McCluskey generator that Primes
// replaces: merge generation by generation, each kept sorted by
// (dc mask, popcount, value) so pairing partners sit in adjacent
// popcount runs and duplicates compact away. Its frontier sizes are
// what MaxPrimes bounds.
func primesOracle(on, dc truthtab.TT, opts Options) ([]cube.Cube, error) {
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
	var cur, next []implicant
	care.ForEachMinterm(func(a uint64) { cur = append(cur, implicant{val: a}) })
	slices.SortFunc(cur, frontierOrder)
	var primes []cube.Cube
	for len(cur) > 0 {
		if opts.MaxPrimes > 0 && len(cur) > opts.MaxPrimes {
			return nil, fmt.Errorf("qm: implicant frontier %d exceeds limit %d", len(cur), opts.MaxPrimes)
		}
		combined := make([]bool, len(cur))
		next = next[:0]
		for gs := 0; gs < len(cur); {
			ge := gs
			for ge < len(cur) && cur[ge].dc == cur[gs].dc {
				ge++
			}
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
		slices.SortFunc(next, frontierOrder)
		next = slices.Compact(next)
		cur, next = next, cur
	}
	slices.SortFunc(primes, cube.Compare)
	return primes, nil
}

// oracleCover is the covering search that the transposed bitset matrix
// replaces: per-prime coverage bitsets only, the active primes as a
// []bool, and every column's coverers counted by probing each active
// prime's bit. Its node order, tie rule and work charge are what
// solveCover must reproduce exactly.
type oracleCover struct {
	primeCov [][]uint64 // per prime: bitset over minterm columns
	primeLit []int
	nCols    int
	frames   []oracleFrame
	masked   [][]uint64
	sel      []int
	bestSel  []int
	bestCost coverCost
	work     int
	maxWork  int
}

type oracleFrame struct {
	remaining []uint64 // minterm columns still to cover
	active    []bool   // primes still eligible
}

// bitsets carves n bitsets of w words each out of one allocation.
func bitsets(n, w int) [][]uint64 {
	buf := make([]uint64, n*w)
	out := make([][]uint64, n)
	for i := range out {
		out[i] = buf[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// solveCoverOracle is solveCover by the oracle search; it also returns
// the work the search spent, so tests can set budgets at its cut-off.
func solveCoverOracle(primes []cube.Cube, on truthtab.TT, maxWork int) (sel []int, complete bool, work int) {
	ms := on.Minterms()
	nCols := len(ms)
	if maxWork <= 0 {
		maxWork = 1 << 40
	}
	w := bitsetWords(nCols)
	st := &oracleCover{nCols: nCols, bestCost: coverCost{cubes: 1 << 30}, maxWork: maxWork}
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
	sel = slices.Clone(st.bestSel)
	slices.Sort(sel)
	return sel, st.work < st.maxWork, st.work
}

func (st *oracleCover) frame(d int) oracleFrame {
	if d == len(st.frames) {
		st.frames = append(st.frames, oracleFrame{
			remaining: make([]uint64, bitsetWords(st.nCols)),
			active:    make([]bool, len(st.primeCov)),
		})
	}
	return st.frames[d]
}

func (st *oracleCover) search(d int, cost coverCost) {
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
	for {
		if isEmpty(remaining) {
			if cost.less(st.bestCost) {
				st.bestCost = cost
				st.bestSel = append(st.bestSel[:0], st.sel...)
			}
			return
		}
		if !cost.less(st.bestCost) {
			return
		}
		changed := false
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
				return
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

func (st *oracleCover) dropDominated(remaining []uint64, active []bool) bool {
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

// containsBits reports a ⊇ b.
func containsBits(a, b []uint64) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// randPair draws an on/dc pair over n variables with a random density,
// so that both sparse functions (few implicants) and dense ones (many,
// tripping small MaxPrimes limits at later generations) occur.
func randPair(rng *rand.Rand, n int) (on, dc truthtab.TT) {
	on, dc = truthtab.New(n), truthtab.New(n)
	pOn, pDC := rng.Float64(), rng.Float64()*0.4
	for a := uint64(0); a < on.Size(); a++ {
		switch x := rng.Float64(); {
		case x < pOn:
			on.SetBit(a, true)
		case x < pOn+pDC:
			dc.SetBit(a, true)
		}
	}
	return on, dc
}

// TestPrimesMatchOracle pins the plane generator to the merge-based
// oracle: identical prime lists, and identical MaxPrimes errors (the
// plane counts per free-variable count are the merge frontiers).
func TestPrimesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const pairs = 3000
	settings := []Options{DefaultOptions(), {MaxVars: 12, MaxPrimes: 20}}
	errs, laterGen := 0, 0
	for i := 0; i < pairs; i++ {
		n := 1 + rng.Intn(10)
		on, dc := randPair(rng, n)
		for _, o := range settings {
			want, wantErr := primesOracle(on, dc, o)
			got, gotErr := Primes(on, dc, o)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("pair %d (n=%d, MaxPrimes %d): error %v, oracle %v", i, n, o.MaxPrimes, gotErr, wantErr)
			}
			if wantErr != nil {
				errs++
				// The minterms fit the limit, so a merge generation
				// tripped it.
				if on.Or(dc).CountOnes() <= uint64(o.MaxPrimes) {
					laterGen++
				}
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("pair %d (n=%d, MaxPrimes %d): primes\n%v\noracle\n%v", i, n, o.MaxPrimes, got, want)
			}
		}
	}
	if errs == 0 || errs == pairs*len(settings) || laterGen == 0 {
		t.Fatalf("%d of %d runs hit the prime limit, %d of them past the minterms; the limit path is untested",
			errs, pairs*len(settings), laterGen)
	}
}

// TestPrimesVariableCap: MaxVars unset or above 12 means 12, since the
// planes take 4^n bits.
func TestPrimesVariableCap(t *testing.T) {
	f := truthtab.Var(13, 0)
	for _, mv := range []int{0, -1, 13, 24} {
		_, err := Primes(f, truthtab.Zero(13), Options{MaxVars: mv})
		if err == nil || err.Error() != "qm: 13 variables exceeds limit 12" {
			t.Fatalf("MaxVars %d: error %v", mv, err)
		}
	}
	ps, err := Primes(truthtab.Var(12, 11), truthtab.Zero(12), Options{})
	if err != nil || len(ps) != 1 || ps[0] != cube.FromLiteral(11, false) {
		t.Fatalf("12 variables: %v, %v", ps, err)
	}
}

// TestPrimesConcurrent calls Primes from several goroutines at mixed
// sizes, so the race detector sees the pooled plane scratch move
// between them.
func TestPrimesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				on, dc := randPair(rng, 1+rng.Intn(9))
				got, gotErr := Primes(on, dc, opts)
				want, wantErr := primesOracle(on, dc, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Errorf("concurrent Primes differs from the oracle on %v / %v", on, dc)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// coverInstance draws the covering problem of a random (on, dc) pair
// over 2 to maxVars variables that Minimize would hand to solveCover: a
// nonempty on-set, a care set short of the constant 1, and no more
// primes than the default covering limit.
func coverInstance(rng *rand.Rand, maxVars int) (primes []cube.Cube, on truthtab.TT) {
	limit := DefaultOptions().MaxCoverPrimes
	for {
		on, dc := randPair(rng, 2+rng.Intn(maxVars-1))
		if on.IsZero() || on.Or(dc).IsOne() {
			continue
		}
		primes, err := Primes(on, dc, DefaultOptions())
		if err != nil || len(primes) > limit {
			continue
		}
		return primes, on
	}
}

// TestSolveCoverMatchesOracle pins the bitset search to the oracle: the
// same selection and completion flag at the default budget, and at the
// oracle's exact work W, W+1 and W/2, so a node visited in another
// order or charged differently moves a cut-off and fails.
func TestSolveCoverMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	instances := 300
	if testing.Short() {
		instances = 100
	}
	cut, deep := 0, 0
	for n := 0; n < instances; n++ {
		primes, on := coverInstance(rng, 8)
		def := DefaultOptions().MaxCoverWork
		defSel, defOK, w := solveCoverOracle(primes, on, def)
		if w >= 64 {
			deep++
		}
		for _, budget := range []int{def, w, w + 1, w / 2} {
			want, wantOK := defSel, defOK
			if budget != def {
				want, wantOK, _ = solveCoverOracle(primes, on, budget)
			}
			got, gotOK := solveCover(primes, on, budget)
			if !wantOK {
				cut++
			}
			if gotOK != wantOK || !slices.Equal(got, want) {
				t.Fatalf("instance %d (%d primes, on %v), budget %d of oracle work %d: selection %v complete %v, oracle %v complete %v",
					n, len(primes), on, budget, w, got, gotOK, want, wantOK)
			}
		}
	}
	if cut < instances || deep < instances/10 {
		t.Fatalf("%d cut-off runs, and %d of %d searches spent 64 or more work units; the budget boundary is untested", cut, deep, instances)
	}
}

// TestSolveCoverConcurrent runs covering searches from several
// goroutines, so the race detector sees the pooled covering scratch
// move between problems of different shapes.
func TestSolveCoverConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				primes, on := coverInstance(rng, 6)
				got, gotOK := solveCover(primes, on, 0)
				want, wantOK, _ := solveCoverOracle(primes, on, 0)
				if gotOK != wantOK || !slices.Equal(got, want) {
					t.Errorf("concurrent solveCover differs from the oracle on %v", on)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// FuzzMinimize: every cover Minimize returns covers on, stays inside
// on ∪ dc and has the oracle search's minimum cost; it fails exactly
// when a covering limit trips.
func FuzzMinimize(f *testing.F) {
	f.Add(uint8(3), []byte{0xe8}, []byte{})
	f.Add(uint8(4), []byte{0x96, 0x69}, []byte{0x01, 0x80})
	f.Add(uint8(6), []byte{0x17, 0xe8, 0x3c, 0x5a, 0x0f, 0xf0, 0x99, 0x66}, []byte{0, 0, 0x81})
	f.Add(uint8(8), []byte("a dense eight-variable on-set drawn from text"), []byte("and its don't-cares"))
	f.Fuzz(func(t *testing.T, nb uint8, onBits, dcBits []byte) {
		n := int(nb % 9)
		on, dc := truthtab.New(n), truthtab.New(n)
		for a := uint64(0); a < on.Size(); a++ {
			if k := int(a >> 3); k < len(onBits) && onBits[k]>>(a&7)&1 == 1 {
				on.SetBit(a, true)
			} else if k < len(dcBits) && dcBits[k]>>(a&7)&1 == 1 {
				dc.SetBit(a, true)
			}
		}
		opts := DefaultOptions()
		got, err := Minimize(on, dc, opts)
		primes, perr := Primes(on, dc, opts)
		if perr != nil {
			t.Fatalf("Primes: %v", perr)
		}
		var want cube.Cover
		switch {
		case on.IsZero():
			want = cube.Cover{}
		case on.Or(dc).IsOne():
			want = cube.Cover{cube.Universe}
		case len(primes) > opts.MaxCoverPrimes:
			if err == nil {
				t.Fatalf("%d primes past the covering limit, yet a cover %v", len(primes), got)
			}
			return
		default:
			sel, complete, _ := solveCoverOracle(primes, on, opts.MaxCoverWork)
			if !complete {
				if err == nil {
					t.Fatalf("the oracle search runs out of work, yet a cover %v", got)
				}
				return
			}
			for _, i := range sel {
				want = append(want, primes[i])
			}
		}
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		tt := got.ToTT(n)
		if !on.AndNot(tt).IsZero() || !tt.AndNot(on.Or(dc)).IsZero() {
			t.Fatalf("cover %v of on %v dc %v leaves on or leaves on ∪ dc", got, on, dc)
		}
		if len(got) != len(want) || literals(got) != literals(want) || !slices.Equal(got, want) {
			t.Fatalf("cover %v, oracle %v", got, want)
		}
	})
}
