package variation

import (
	"math"
	"math/rand"
	"testing"

	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

func synth(t *testing.T, f truthtab.TT) *lattice.Lattice {
	t.Helper()
	res, err := latsynth.DualMethod(f, latsynth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Lattice
}

func TestPathDelayNominal(t *testing.T) {
	// A 3×1 AND column at nominal variation: delay = 3 cells.
	f := truthtab.Var(3, 0).And(truthtab.Var(3, 1)).And(truthtab.Var(3, 2))
	l := synth(t, f)
	m := NewMap(l.R, l.C)
	d := PathDelay(l, m, 0, 0, 0b111)
	if d != float64(l.R) {
		t.Fatalf("nominal column delay %v, want %v", d, l.R)
	}
	// Non-conducting assignment: +Inf.
	if d := PathDelay(l, m, 0, 0, 0b011); !math.IsInf(d, 1) && d != math.MaxFloat64 {
		t.Fatalf("non-conducting delay %v", d)
	}
}

func TestPathDelayPicksFastestPath(t *testing.T) {
	// 1×2 OR row: two parallel single-cell paths; delay = min factor.
	l := lattice.New(1, 2)
	l.Set(0, 0, lattice.Lit(0, false))
	l.Set(0, 1, lattice.Lit(1, false))
	m := NewMap(1, 2)
	m.Set(0, 0, 5)
	m.Set(0, 1, 2)
	if d := PathDelay(l, m, 0, 0, 0b11); d != 2 {
		t.Fatalf("parallel delay %v, want 2 (fastest path)", d)
	}
	// Only the slow path conducts.
	if d := PathDelay(l, m, 0, 0, 0b01); d != 5 {
		t.Fatalf("single-path delay %v, want 5", d)
	}
}

func TestCriticalDelayIsWorstOnSet(t *testing.T) {
	l := lattice.New(1, 2)
	l.Set(0, 0, lattice.Lit(0, false))
	l.Set(0, 1, lattice.Lit(1, false))
	m := NewMap(1, 2)
	m.Set(0, 0, 7)
	m.Set(0, 1, 3)
	// On-set: 01 (delay 7), 10 (delay 3), 11 (delay 3). Critical = 7.
	if d := CriticalDelay(l, m, 0, 0, 2); d != 7 {
		t.Fatalf("critical delay %v, want 7", d)
	}
}

func TestLognormalStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Lognormal(40, 40, 0.5, rng)
	logSum, n := 0.0, 0
	for r := 0; r < 40; r++ {
		for c := 0; c < 40; c++ {
			d := m.At(r, c)
			if d <= 0 {
				t.Fatal("non-positive delay factor")
			}
			logSum += math.Log(d)
			n++
		}
	}
	// Median ≈ 1 → mean log ≈ 0.
	if mean := logSum / float64(n); math.Abs(mean) > 0.05 {
		t.Fatalf("log-mean %v too far from 0", mean)
	}
	// Zero sigma: all factors exactly 1.
	z := Lognormal(4, 4, 0, rng)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if z.At(r, c) != 1 {
				t.Fatal("sigma=0 must be nominal")
			}
		}
	}
}

func TestBestPlacementBeatsWorst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := truthtab.FromFunc(3, func(a uint64) bool {
		return a&1+a>>1&1+a>>2&1 >= 2
	})
	l := synth(t, f)
	m := Lognormal(l.R+6, l.C+6, 0.6, rng)
	best, worst := BestPlacement(l, m, 3, 1)
	if best.Delay > worst.Delay {
		t.Fatalf("best %v > worst %v", best.Delay, worst.Delay)
	}
	if best.Delay <= 0 || math.IsInf(best.Delay, 1) {
		t.Fatalf("implausible best delay %v", best.Delay)
	}
	// With real variation there is almost surely a strict gap.
	if best.Delay == worst.Delay {
		t.Log("degenerate map: best == worst (acceptable but unusual)")
	}
}

func TestVariationAwareGainPositiveOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := truthtab.Var(2, 0).And(truthtab.Var(2, 1))
	l := synth(t, f)
	gains := 0.0
	trials := 30
	for i := 0; i < trials; i++ {
		m := Lognormal(l.R+8, l.C+8, 0.5, rng)
		best, worst := BestPlacement(l, m, 2, 1)
		gains += worst.Delay - best.Delay
	}
	if gains <= 0 {
		t.Fatal("variation-aware placement never helped")
	}
}

func TestGuardBandMonotoneInSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := truthtab.FromFunc(3, func(a uint64) bool {
		return a&1+a>>1&1+a>>2&1 >= 2
	})
	l := synth(t, f)
	meanLo, p99Lo := GuardBand(l, 3, 0.2, 120, 0.99, rng)
	meanHi, p99Hi := GuardBand(l, 3, 0.8, 120, 0.99, rng)
	if p99Lo >= p99Hi {
		t.Fatalf("guard band must widen with sigma: %v vs %v", p99Lo, p99Hi)
	}
	if p99Lo < meanLo || p99Hi < meanHi {
		t.Fatal("p99 below mean")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewMap(0, 1) })
	mustPanic(func() { NewMap(2, 2).Set(0, 0, 0) })
	l := lattice.Constant(true)
	mustPanic(func() { PathDelay(l, NewMap(1, 1), 1, 0, 0) })
	mustPanic(func() { GuardBand(l, 1, 0.5, 0, 0.99, rand.New(rand.NewSource(5))) })
	big := lattice.New(3, 3)
	mustPanic(func() { BestPlacement(big, NewMap(2, 2), 1, 1) })
}

// Set assigns a delay factor.
func (m *Map) Set(r, c int, d float64) {
	if d <= 0 {
		panic("variation: delay factors must be positive")
	}
	m.delay[r*m.C+c] = d
}
