package redundancy

import (
	"math"
	"math/rand"
	"testing"

	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

func maj3Lattice(t *testing.T) *lattice.Lattice {
	t.Helper()
	f := truthtab.FromFunc(3, func(a uint64) bool {
		return a&1+a>>1&1+a>>2&1 >= 2
	})
	res, err := latsynth.DualMethod(f, latsynth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Lattice
}

func TestTransientEvalZeroUpsetMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := maj3Lattice(t)
	for a := uint64(0); a < 8; a++ {
		if TransientEval(l, a, 0, rng) != l.Eval(a) {
			t.Fatal("p=0 transient eval diverges")
		}
	}
}

func TestTransientEvalCertainUpset(t *testing.T) {
	// p=1 flips every site: a single always-on cell becomes always-off.
	rng := rand.New(rand.NewSource(2))
	l := lattice.Constant(true)
	if TransientEval(l, 0, 1, rng) {
		t.Fatal("total upset should break the constant-1 lattice")
	}
}

func TestNMRValidation(t *testing.T) {
	l := maj3Lattice(t)
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewNMR(l, 2) })
	mustPanic(func() { NewNMR(l, 0) })
	m := NewNMR(l, 3)
	if m.Area() != 3*l.Area() {
		t.Fatal("NMR area accounting")
	}
}

func TestTMRSuppressesTransients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := maj3Lattice(t)
	bare, prot := ErrorRates(l, 3, 3, 0.01, 4000, rng)
	if bare == 0 {
		t.Fatal("upsets never produced a bare error; model inert")
	}
	if prot >= bare {
		t.Fatalf("TMR error rate %v not below bare %v", prot, bare)
	}
	// For small ε, TMR error ≈ 3ε² ≪ ε: expect at least ~3× better.
	if prot*3 > bare {
		t.Fatalf("TMR suppression too weak: %v vs %v", prot, bare)
	}
}

func TestFiveMRBeatsTMRAtHighUpset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := maj3Lattice(t)
	_, tmr := ErrorRates(l, 3, 3, 0.05, 6000, rng)
	_, fmr := ErrorRates(l, 3, 5, 0.05, 6000, rng)
	if fmr > tmr*1.2 {
		t.Fatalf("5-MR (%v) should not be clearly worse than TMR (%v)", fmr, tmr)
	}
}

func TestLifetimeNoFaultsRunsForever(t *testing.T) {
	l := maj3Lattice(t)
	res := Lifetime(l, 3, LifetimeParams{
		ChipN: 16, FaultsPerEp: 0, Epochs: 50, RetestEvery: 5, RemapBudget: 100, Seed: 1,
	})
	if res.EpochsAlive != 50 || res.Remaps != 0 || res.DiedOfChip {
		t.Fatalf("clean chip lifetime: %+v", res)
	}
}

func TestLifetimeRepairExtendsLife(t *testing.T) {
	l := maj3Lattice(t)
	base := LifetimeParams{
		ChipN: 24, FaultsPerEp: 1.0, Epochs: 400, RemapBudget: 200,
	}
	var aliveNoRepair, aliveRepair int
	trials := 15
	for s := int64(0); s < int64(trials); s++ {
		p := base
		p.Seed = s
		p.RetestEvery = 0
		aliveNoRepair += Lifetime(l, 3, p).EpochsAlive
		p.RetestEvery = 2
		aliveRepair += Lifetime(l, 3, p).EpochsAlive
	}
	if aliveRepair <= aliveNoRepair {
		t.Fatalf("repair did not extend lifetime: %d vs %d", aliveRepair, aliveNoRepair)
	}
	// The paper's point: reconfigurability buys substantial lifetime.
	if float64(aliveRepair) < 2*float64(aliveNoRepair) {
		t.Fatalf("lifetime extension too small: %d vs %d", aliveRepair, aliveNoRepair)
	}
}

func TestLifetimeEventuallyDies(t *testing.T) {
	l := maj3Lattice(t)
	res := Lifetime(l, 3, LifetimeParams{
		ChipN: 8, FaultsPerEp: 6, Epochs: 3000, RetestEvery: 1, RemapBudget: 50, Seed: 7,
	})
	if !res.DiedOfChip && res.EpochsAlive == 3000 {
		t.Fatal("saturated chip should eventually exhaust healthy regions")
	}
}

// TestTransientEval64ZeroUpsetMatchesEval pins the packed evaluator
// bit-for-bit against the scalar lattice evaluation when no upsets are
// drawn: every lane must equal l.Eval of its assignment.
func TestTransientEval64ZeroUpsetMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := maj3Lattice(t)
	var a [64]uint64
	for trial := 0; trial < 10; trial++ {
		for i := range a {
			a[i] = rng.Uint64() % 8
		}
		mc := NewMC()
		mc.Load(l, &a)
		got := mc.TransientEval64(0, rng)
		if ev := mc.Eval64(); ev != got {
			t.Fatalf("Eval64 %#x != TransientEval64(p=0) %#x", ev, got)
		}
		for i := range a {
			if got>>uint(i)&1 == 1 != l.Eval(a[i]) {
				t.Fatalf("lane %d (a=%d) diverges from scalar Eval", i, a[i])
			}
		}
	}
}

// TestTransientEval64CertainUpset mirrors the scalar certain-upset
// test: p=1 flips every site of the constant-1 lattice in every lane.
func TestTransientEval64CertainUpset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := lattice.Constant(true)
	var a [64]uint64
	mc := NewMC()
	mc.Load(l, &a)
	if got := mc.TransientEval64(1, rng); got != 0 {
		t.Fatalf("total upset should break the constant-1 lattice in all lanes, got %#x", got)
	}
}

// TestTransientEval64MatchesScalarStatistically compares the upset
// error rate estimated by the packed path against the retained scalar
// path: the resampled RNG stream means individual trials differ, so the
// pin is statistical — estimates over many trials must agree within
// Monte Carlo tolerance.
func TestTransientEval64MatchesScalarStatistically(t *testing.T) {
	l := maj3Lattice(t)
	const p = 0.02
	const trials = 64 * 150
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(1007))

	mc := NewMC()
	var a [64]uint64
	packedErr := 0
	for done := 0; done < trials; done += 64 {
		for i := range a {
			a[i] = rngA.Uint64() % 8
		}
		mc.Load(l, &a)
		want := mc.Eval64()
		packedErr += popcount(mc.TransientEval64(p, rngA) ^ want)
	}
	scalarErr := 0
	for i := 0; i < trials; i++ {
		av := rngB.Uint64() % 8
		if TransientEval(l, av, p, rngB) != l.Eval(av) {
			scalarErr++
		}
	}
	pe, se := float64(packedErr)/trials, float64(scalarErr)/trials
	if diff := pe - se; diff > 0.02 || diff < -0.02 {
		t.Fatalf("packed error rate %.4f vs scalar %.4f diverge", pe, se)
	}
	if packedErr == 0 {
		t.Fatal("packed model inert: no upset errors at p=0.02")
	}
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// TestErrorRatesMatchesScalarReference pins the word-wide ErrorRates
// against the retained one-trial-at-a-time reference, statistically.
func TestErrorRatesMatchesScalarReference(t *testing.T) {
	l := maj3Lattice(t)
	const trials = 6000
	for _, nmr := range []int{3, 5} {
		bareF, protF := ErrorRates(l, 3, nmr, 0.03, trials, rand.New(rand.NewSource(8)))
		bareS, protS := ErrorRatesScalar(l, 3, nmr, 0.03, trials, rand.New(rand.NewSource(1008)))
		near := func(a, b float64) bool {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d <= 0.02
		}
		if !near(bareF, bareS) || !near(protF, protS) {
			t.Fatalf("nmr=%d: fast (%.4f,%.4f) vs scalar (%.4f,%.4f) diverge",
				nmr, bareF, protF, bareS, protS)
		}
		if protF >= bareF {
			t.Fatalf("nmr=%d: protection (%.4f) not below bare (%.4f)", nmr, protF, bareF)
		}
	}
}

// TestMajorityGE exhausts the bit-sliced vote comparator against
// integer arithmetic for every vote count of small odd panels.
func TestMajorityGE(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9, 15} {
		for votes := 0; votes <= n; votes++ {
			// Lane 0 carries `votes` votes; lane 1 carries n (all).
			var cnt [7]uint64
			add := func(mask uint64) {
				carry := mask
				for j := 0; carry != 0; j++ {
					nc := cnt[j] & carry
					cnt[j] ^= carry
					carry = nc
				}
			}
			for k := 0; k < votes; k++ {
				add(0b01)
			}
			for k := 0; k < n; k++ {
				add(0b10)
			}
			got := majorityGE(cnt[:], n)
			wantLane0 := votes >= n/2+1
			if (got&1 == 1) != wantLane0 {
				t.Fatalf("n=%d votes=%d: majorityGE lane0 %v, want %v", n, votes, got&1 == 1, wantLane0)
			}
			if got>>1&1 != 1 {
				t.Fatalf("n=%d: unanimous lane must pass majority", n)
			}
		}
	}
}

// lifetimeScalarReference is the pre-bitset Lifetime implementation
// (bool-array fault state, per-site region walk), kept in the tests to
// pin the mask-based rewrite bit-for-bit: both consume the identical
// RNG stream, so results must match exactly.
func lifetimeScalarReference(l *lattice.Lattice, p LifetimeParams) LifetimeResult {
	rng := rand.New(rand.NewSource(p.Seed))
	dead := make([]bool, p.ChipN*p.ChipN)
	regionHealthy := func(rowOff, colOff int) bool {
		for i := 0; i < l.R; i++ {
			for j := 0; j < l.C; j++ {
				if l.At(i, j).Kind == lattice.Const0 {
					continue
				}
				if dead[(rowOff+i)*p.ChipN+colOff+j] {
					return false
				}
			}
		}
		return true
	}
	rowOff, colOff := 0, 0
	place := func() bool {
		for ro := 0; ro+l.R <= p.ChipN; ro++ {
			for co := 0; co+l.C <= p.ChipN; co++ {
				if regionHealthy(ro, co) {
					rowOff, colOff = ro, co
					return true
				}
			}
		}
		return false
	}
	if !place() {
		return LifetimeResult{DiedOfChip: true}
	}
	var res LifetimeResult
	poisson := func(lambda float64) int {
		threshold := math.Exp(-lambda)
		L := 1.0
		for k := 0; ; k++ {
			L *= rng.Float64()
			if L < threshold {
				return k
			}
		}
	}
	for ep := 0; ep < p.Epochs; ep++ {
		for k := poisson(p.FaultsPerEp); k > 0; k-- {
			dead[rng.Intn(len(dead))] = true
		}
		if regionHealthy(rowOff, colOff) {
			res.EpochsAlive++
			continue
		}
		if p.RetestEvery == 0 {
			return res
		}
		if (ep+1)%p.RetestEvery != 0 {
			continue
		}
		if !place() {
			res.DiedOfChip = true
			return res
		}
		res.Remaps++
		res.EpochsAlive++
	}
	return res
}

// TestLifetimeMatchesScalarReference: the mask-based aging simulation
// must reproduce the scalar reference exactly for identical seeds.
func TestLifetimeMatchesScalarReference(t *testing.T) {
	l := maj3Lattice(t)
	for seed := int64(0); seed < 12; seed++ {
		for _, retest := range []int{0, 2, 5} {
			p := LifetimeParams{
				ChipN: 17, FaultsPerEp: 1.5, Epochs: 200,
				RetestEvery: retest, RemapBudget: 100, Seed: seed,
			}
			got := Lifetime(l, 3, p)
			want := lifetimeScalarReference(l, p)
			if got != want {
				t.Fatalf("seed %d retest %d: mask %+v vs scalar %+v", seed, retest, got, want)
			}
		}
	}
}

func TestLifetimePanicsOnTinyChip(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := maj3Lattice(t)
	Lifetime(l, 3, LifetimeParams{ChipN: 1, Epochs: 1})
}
