package lattice

import (
	"math/rand"
	"sync"
	"testing"

	"nanoxbar/internal/truthtab"
)

// randomLattice draws an R×C lattice mixing literals over n variables
// with occasional constants.
func randomLattice(rng *rand.Rand, r, c, n int) *Lattice {
	l := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			switch rng.Intn(10) {
			case 0:
				l.Set(i, j, Site{Kind: Const0})
			case 1:
				l.Set(i, j, Site{Kind: Const1})
			default:
				l.Set(i, j, Lit(rng.Intn(n), rng.Intn(2) == 1))
			}
		}
	}
	return l
}

// TestBitParallelAgreesWithScalar is the core property test: on
// randomized lattices the bit-parallel Function/DualFunction/Implements
// and the zero-alloc scalar Eval/EvalDual must agree with the
// reference per-assignment BFS, across word-boundary variable counts
// (n = 6 is one exact word, n = 7..8 multi-word, n < 6 a partial word).
func TestBitParallelAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ev := NewEvaluator() // deliberately shared across sizes: scratch must reset
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		l := randomLattice(rng, 1+rng.Intn(5), 1+rng.Intn(5), n)
		want := l.Function(n)
		wantD := l.DualFunction(n)

		if got := l.FunctionFast(n); !got.Equal(want) {
			t.Fatalf("trial %d: FunctionFast = %v, want %v for\n%v", trial, got, want, l)
		}
		if got := ev.Function(l, n); !got.Equal(want) {
			t.Fatalf("trial %d: Evaluator.Function = %v, want %v for\n%v", trial, got, want, l)
		}
		if got := l.DualFunctionFast(n); !got.Equal(wantD) {
			t.Fatalf("trial %d: DualFunctionFast = %v, want %v for\n%v", trial, got, wantD, l)
		}
		if got := ev.DualFunction(l, n); !got.Equal(wantD) {
			t.Fatalf("trial %d: Evaluator.DualFunction = %v, want %v for\n%v", trial, got, wantD, l)
		}
		if !l.ImplementsFast(want) || !ev.Implements(l, want) {
			t.Fatalf("trial %d: ImplementsFast rejects the lattice's own function\n%v", trial, l)
		}
		// Perturbing any one minterm must be detected.
		flip := want.Clone()
		a := rng.Uint64() & (want.Size() - 1)
		flip.SetBit(a, !flip.Bit(a))
		if l.ImplementsFast(flip) || ev.Implements(l, flip) {
			t.Fatalf("trial %d: ImplementsFast accepts a perturbed function", trial)
		}
		for a := uint64(0); a < want.Size(); a++ {
			if got := ev.Eval(l, a); got != want.Bit(a) {
				t.Fatalf("trial %d: Evaluator.Eval(%d) = %v, want %v", trial, a, got, want.Bit(a))
			}
			if got := ev.EvalDual(l, a); got != wantD.Bit(a) {
				t.Fatalf("trial %d: Evaluator.EvalDual(%d) = %v, want %v", trial, a, got, wantD.Bit(a))
			}
		}
	}
}

// TestBitParallelFixtures pins the fast path to the repository's seed
// fixtures.
func TestBitParallelFixtures(t *testing.T) {
	l := fig4()
	want := fig4Function(t)
	if !l.ImplementsFast(want) {
		t.Fatalf("Fig.4 lattice: ImplementsFast = false; FunctionFast = %v, want %v", l.FunctionFast(6), want)
	}
	if !l.DualFunctionFast(6).Equal(want.Dual()) {
		t.Fatal("Fig.4 lattice: DualFunctionFast differs from the dual of its function")
	}

	one := Constant(true)
	if !one.FunctionFast(1).IsOne() || !one.DualFunctionFast(1).IsZero() {
		t.Fatal("constant-1 lattice fast evaluation")
	}
	zero := Constant(false)
	if !zero.FunctionFast(1).IsZero() || !zero.DualFunctionFast(1).IsOne() {
		t.Fatal("constant-0 lattice fast evaluation")
	}
	x := New(1, 1)
	x.Set(0, 0, Lit(0, false))
	if !x.FunctionFast(1).Equal(truthtab.Var(1, 0)) || !x.DualFunctionFast(1).Equal(truthtab.Var(1, 0)) {
		t.Fatal("single-literal lattice fast evaluation")
	}
}

// TestBitParallelComposition checks the fast path against the
// Altun–Riedel composition rules, whose correctness the scalar tests
// already establish.
func TestBitParallelComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 5
	for trial := 0; trial < 50; trial++ {
		a := randomLattice(rng, 1+rng.Intn(3), 1+rng.Intn(3), n)
		b := randomLattice(rng, 1+rng.Intn(3), 1+rng.Intn(3), n)
		or, and := Or(a, b), And(a, b)
		if !or.FunctionFast(n).Equal(a.FunctionFast(n).Or(b.FunctionFast(n))) {
			t.Fatalf("trial %d: Or composition under FunctionFast", trial)
		}
		if !and.FunctionFast(n).Equal(a.FunctionFast(n).And(b.FunctionFast(n))) {
			t.Fatalf("trial %d: And composition under FunctionFast", trial)
		}
	}
}

// TestFeasiblePartial cross-checks the bit-parallel prune against the
// definitionally correct construction: filling the undecided sites with
// Const1 (optimistic) / Const0 (pessimistic) and evaluating.
func TestFeasiblePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ev := NewEvaluator()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		R, C := 1+rng.Intn(4), 1+rng.Intn(4)
		l := randomLattice(rng, R, C, n)
		f := randomLattice(rng, 1+rng.Intn(4), 1+rng.Intn(4), n).Function(n)
		filled := rng.Intn(R*C + 1)

		opt, pess := l.Clone(), l.Clone()
		for i := filled; i < R*C; i++ {
			opt.Set(i/C, i%C, Site{Kind: Const1})
			pess.Set(i/C, i%C, Site{Kind: Const0})
		}
		want := f.Implies(opt.Function(n)) && pess.Function(n).Implies(f)
		if got := ev.FeasiblePartial(l, filled, f); got != want {
			t.Fatalf("trial %d: FeasiblePartial = %v, want %v (filled %d of %d×%d)", trial, got, want, filled, R, C)
		}
	}
}

// TestEvaluatorConcurrentPools exercises the pooled wrappers from many
// goroutines so the race detector can see any scratch sharing.
func TestEvaluatorConcurrentPools(t *testing.T) {
	l := fig4()
	want := fig4Function(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				rl := randomLattice(rng, 1+rng.Intn(4), 1+rng.Intn(4), 4)
				if !rl.FunctionFast(4).Equal(rl.Function(4)) {
					t.Error("concurrent FunctionFast mismatch")
					return
				}
				if !l.ImplementsFast(want) {
					t.Error("concurrent ImplementsFast mismatch")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestCounterSnapshot checks the evaluation counters move.
func TestCounterSnapshot(t *testing.T) {
	before := CounterSnapshot()
	l := fig4()
	l.FunctionFast(6)
	l.ImplementsFast(fig4Function(t))
	NewEvaluator().Eval(l, 0)
	after := CounterSnapshot()
	if after.FastFunctions <= before.FastFunctions ||
		after.FastImplements <= before.FastImplements ||
		after.ScalarEvals <= before.ScalarEvals ||
		after.WordBlocks <= before.WordBlocks {
		t.Fatalf("counters did not advance: before %+v after %+v", before, after)
	}
}

// TestPercolateAgreesWithScalar pins the scanline kernel to the scalar
// single-assignment search, bit by bit, on random on-mask grids of 1–12
// rows and columns in both readings. Unbounded, the sink masks are
// equal. Bounded, the verdicts callers draw are equal — Implements'
// (sink == limit) and FeasiblePartial's (sink ⊆ limit) — and a stop
// before the fixpoint happens only on a real overshoot.
func TestPercolateAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ev := NewEvaluator()
	for trial := 0; trial < 600; trial++ {
		R, C := 1+rng.Intn(12), 1+rng.Intn(12)
		dual := trial%2 == 1
		density := 0.3 + 0.6*rng.Float64()
		on := make([]uint64, R*C)
		for i := range on {
			for b := 0; b < 64; b++ {
				if rng.Float64() < density {
					on[i] |= 1 << b
				}
			}
		}
		ev.growScalar(R * C)
		var want uint64
		for b := 0; b < 64; b++ {
			for i, o := range on {
				ev.sOn[i] = o>>b&1 == 1
			}
			if ev.percolateScalar(R, C, dual) {
				want |= 1 << b
			}
		}
		ev.grow(R * C)
		copy(ev.onw, on)
		if got, ok := ev.percolate(R, C, dual, false, 0); !ok || got != want {
			t.Fatalf("trial %d (%d×%d dual=%v): sink %#x ok=%v, scalar %#x", trial, R, C, dual, got, ok, want)
		}
		for _, limit := range []uint64{want, want &^ (1 << rng.Intn(64)), want | 1<<rng.Intn(64), rng.Uint64()} {
			copy(ev.onw, on)
			got, ok := ev.percolate(R, C, dual, true, limit)
			if ok && got != want || !ok && want&^limit == 0 {
				t.Fatalf("trial %d (%d×%d dual=%v, limit %#x): sink %#x ok=%v, scalar %#x", trial, R, C, dual, limit, got, ok, want)
			}
			if (ok && got == limit) != (want == limit) || (ok && got&^limit == 0) != (want&^limit == 0) {
				t.Fatalf("trial %d: bounded verdicts differ from the scalar ones", trial)
			}
		}
	}
}

// TestImplementsWithoutMatchesMaterialized: the in-place deletion trial
// gives the verdict of building the lattice minus that row or column
// and verifying it with the scalar reference, for every row and column
// of random lattices over 2–8 variables (multi-word from 7 up), all
// trials of a lattice reading one LoadDeletions with Implements calls
// in between, and it moves the evaluation counters exactly as
// Implements on the built lattice does.
func TestImplementsWithoutMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ev := NewEvaluator()
	accepted := 0
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7)
		l := randomLattice(rng, 1+rng.Intn(6), 1+rng.Intn(6), n)
		var dels [][2]int // {row, col}, −1 for the other
		for i := 0; l.R > 1 && i < l.R; i++ {
			dels = append(dels, [2]int{i, -1})
		}
		for j := 0; l.C > 1 && j < l.C; j++ {
			dels = append(dels, [2]int{-1, j})
		}
		ev.LoadDeletions(l, n)
		for _, d := range dels {
			m := l.Clone()
			if d[0] >= 0 {
				m.DeleteRow(d[0])
			} else {
				m.DeleteCol(d[1])
			}
			for _, f := range []truthtab.TT{l.Function(n), m.Function(n), randomLattice(rng, 2, 2, n).Function(n)} {
				c0 := CounterSnapshot()
				var got bool
				if d[0] >= 0 {
					got = ev.ImplementsWithoutRow(d[0], f)
				} else {
					got = ev.ImplementsWithoutCol(d[1], f)
				}
				c1 := CounterSnapshot()
				ev.Implements(m, f)
				c2 := CounterSnapshot()
				if want := m.Implements(f); got != want {
					t.Fatalf("trial %d, deleting %v: in place %v, materialized %v for\n%v", trial, d, got, want, l)
				}
				if got {
					accepted++
				}
				if c1.FastImplements-c0.FastImplements != c2.FastImplements-c1.FastImplements ||
					c1.WordBlocks-c0.WordBlocks != c2.WordBlocks-c1.WordBlocks {
					t.Fatalf("trial %d, deleting %v: counter deltas differ from Implements on the built lattice", trial, d)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no deletion trial was accepted; the test has no teeth")
	}
}
