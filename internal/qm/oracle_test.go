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
