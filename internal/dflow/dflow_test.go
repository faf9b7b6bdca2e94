package dflow

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/defect"
)

func TestGreedyCleanChip(t *testing.T) {
	m := defect.NewMap(8, 8)
	e := Greedy(m)
	if e.K() != 8 {
		t.Fatalf("clean chip k = %d", e.K())
	}
	if !IsUniversal(m, e.Rows, e.Cols) {
		t.Fatal("clean extraction not universal")
	}
}

// addWireFaults breaks each row and each column of m, and bridges each
// adjacent pair of rows and of columns, independently with the given
// probabilities, drawing from rng after the die's crosspoints: random
// dies carry crosspoint defects only.
func addWireFaults(m *defect.Map, rng *rand.Rand, rowBreak, colBreak, rowBridge, colBridge float64) {
	defect.VisitBernoulli(rng, rowBreak, m.R, func(i int) { m.SetRowBroken(i, true) })
	defect.VisitBernoulli(rng, colBreak, m.C, func(i int) { m.SetColBroken(i, true) })
	defect.VisitBernoulli(rng, rowBridge, m.R-1, func(i int) { m.SetRowBridge(i, true) })
	defect.VisitBernoulli(rng, colBridge, m.C-1, func(i int) { m.SetColBridge(i, true) })
}

func TestGreedyAlwaysUniversal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 120; i++ {
		n := 4 + rng.Intn(20)
		p := defect.UniformCrosspoint(rng.Float64() * 0.2)
		rowBreak, colBreak, rowBridge, colBridge := rng.Float64()*0.05, rng.Float64()*0.05, rng.Float64()*0.05, rng.Float64()*0.05
		m := defect.Random(n, n, p, rng)
		addWireFaults(m, rng, rowBreak, colBreak, rowBridge, colBridge)
		e := Greedy(m)
		if len(e.Rows) != len(e.Cols) {
			t.Fatal("extraction not square")
		}
		if e.K() > 0 && !IsUniversal(m, e.Rows, e.Cols) {
			t.Fatalf("greedy extraction not universal:\n%v\n%v", m, e)
		}
	}
}

func TestGreedyAvoidsKnownDefects(t *testing.T) {
	// A fully defective row and column must be excluded; the rest is
	// clean, so k = n-1.
	n := 6
	m := defect.NewMap(n, n)
	for i := 0; i < n; i++ {
		m.Set(2, i, defect.StuckOpen)
		m.Set(i, 4, defect.StuckClosed)
	}
	e := Greedy(m)
	if e.K() != n-1 {
		t.Fatalf("k = %d, want %d", e.K(), n-1)
	}
	for _, r := range e.Rows {
		if r == 2 {
			t.Fatal("defective row selected")
		}
	}
	for _, c := range e.Cols {
		if c == 4 {
			t.Fatal("defective column selected")
		}
	}
}

func TestExactMatchesBruteOnTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		n := 3 + rng.Intn(4)
		m := defect.Random(n, n, defect.UniformCrosspoint(0.3), rng)
		exact, ok := ExactMaxK(m, 10)
		if !ok {
			t.Fatal("exact refused small N")
		}
		g := Greedy(m).K()
		if g > exact {
			t.Fatalf("greedy %d exceeded exact %d:\n%v", g, exact, m)
		}
	}
}

func TestGreedyNearOptimal(t *testing.T) {
	// On small maps greedy should be within 1 of the optimum most of
	// the time — audit its quality.
	rng := rand.New(rand.NewSource(3))
	within1, total := 0, 0
	for i := 0; i < 80; i++ {
		n := 6 + rng.Intn(4)
		m := defect.Random(n, n, defect.UniformCrosspoint(0.15), rng)
		exact, ok := ExactMaxK(m, 10)
		if !ok {
			continue
		}
		g := Greedy(m).K()
		total++
		if exact-g <= 1 {
			within1++
		}
	}
	if total == 0 || float64(within1)/float64(total) < 0.8 {
		t.Fatalf("greedy within-1 rate %d/%d too low", within1, total)
	}
}

func TestExactHandlesBridges(t *testing.T) {
	// 4×4 clean map with all row bridges: no two adjacent rows may be
	// selected → at most 2 rows {0,2} or {1,3} → k = 2.
	m := defect.NewMap(4, 4)
	for r := 0; r+1 < 4; r++ {
		m.SetRowBridge(r, true)
	}
	exact, ok := ExactMaxK(m, 10)
	if !ok || exact != 2 {
		t.Fatalf("exact = %d, want 2", exact)
	}
	e := Greedy(m)
	if e.K() > 2 {
		t.Fatal("greedy ignored bridges")
	}
	if e.K() > 0 && !IsUniversal(m, e.Rows, e.Cols) {
		t.Fatal("greedy bridge extraction invalid")
	}
}

func TestYieldMonotoneInDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, want, trials := 16, 12, 60
	// yield estimates P(Greedy recovers k ≥ want) over random maps.
	yield := func(p defect.Params) float64 {
		hits := 0
		for i := 0; i < trials; i++ {
			if Greedy(defect.Random(n, n, p, rng)).K() >= want {
				hits++
			}
		}
		return float64(hits) / float64(trials)
	}
	yLow := yield(defect.UniformCrosspoint(0.01))
	yHigh := yield(defect.UniformCrosspoint(0.25))
	if yLow < yHigh {
		t.Fatalf("yield should fall with density: %.2f vs %.2f", yLow, yHigh)
	}
	if yLow < 0.5 {
		t.Fatalf("low-density yield %.2f implausibly low", yLow)
	}
}

func TestDescriptorSizeIsLinear(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		m := defect.NewMap(n, n)
		e := Greedy(m)
		d := e.DescriptorBits(n)
		raw := RawMapBits(n)
		if d >= raw {
			t.Fatalf("N=%d: descriptor %d bits not smaller than raw map %d", n, d, raw)
		}
	}
	// Growth: descriptor O(N log N) versus raw O(N²): ratio must
	// improve with N.
	e16 := Greedy(defect.NewMap(16, 16)).DescriptorBits(16)
	e256 := Greedy(defect.NewMap(256, 256)).DescriptorBits(256)
	r16 := float64(e16) / float64(RawMapBits(16))
	r256 := float64(e256) / float64(RawMapBits(256))
	if r256 >= r16 {
		t.Fatalf("descriptor advantage should grow with N: %.3f vs %.3f", r16, r256)
	}
}

func TestCompareFlows(t *testing.T) {
	c := DefaultCosts()
	// Single app, single chip: aware flow is cheaper (no extraction).
	aware, unaware := CompareFlows(64, 56, 1, 1, c)
	if aware > unaware {
		t.Fatalf("one chip/app: aware %.0f should not exceed unaware %.0f", aware, unaware)
	}
	// Many chips and apps: unaware flow must win decisively.
	aware, unaware = CompareFlows(64, 56, 1000, 20, c)
	if unaware >= aware {
		t.Fatalf("at scale unaware %.0f should beat aware %.0f", unaware, aware)
	}
}

func TestIsUniversalRejects(t *testing.T) {
	m := defect.NewMap(4, 4)
	m.Set(1, 1, defect.StuckOpen)
	if IsUniversal(m, []int{0, 1}, []int{0, 1}) {
		t.Fatal("defective intersection accepted")
	}
	if !IsUniversal(m, []int{0, 2}, []int{0, 2}) {
		t.Fatal("clean selection rejected")
	}
	if IsUniversal(m, []int{0, 0}, []int{1, 2}) {
		t.Fatal("duplicate row accepted")
	}
	if IsUniversal(m, []int{0, 9}, []int{1, 2}) {
		t.Fatal("out-of-range row accepted")
	}
	m.SetRowBroken(3, true)
	if IsUniversal(m, []int{3}, []int{0}) {
		t.Fatal("broken row accepted")
	}
}

func TestExactRefusesLargeN(t *testing.T) {
	m := defect.NewMap(16, 16)
	if _, ok := ExactMaxK(m, 10); ok {
		t.Fatal("exact should refuse N beyond the limit")
	}
}
