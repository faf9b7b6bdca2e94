package defect

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// anyDefect reports whether m holds any defect: a set word in any
// plane.
func anyDefect(m *Map) bool {
	for _, plane := range [6][]uint64{m.open, m.clsd, m.rowBroken, m.colBroken, m.rowBridge, m.colBridge} {
		for _, w := range plane {
			if w != 0 {
				return true
			}
		}
	}
	return false
}

// healthy reports whether crosspoint (r, c) and both of its wires are
// usable: no stuck fault, neither line broken.
func healthy(m *Map, r, c int) bool {
	return m.At(r, c) == None && !m.RowBroken(r) && !m.ColBroken(c)
}

func TestNewMapClean(t *testing.T) {
	m := NewMap(4, 5)
	if anyDefect(m) || m.CountCrosspointDefects() != 0 {
		t.Fatal("fresh map must be clean")
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			if !healthy(m, r, c) {
				t.Fatal("fresh crosspoint unhealthy")
			}
		}
	}
}

func TestSetAndHealth(t *testing.T) {
	m := NewMap(3, 3)
	m.Set(1, 2, StuckOpen)
	if m.At(1, 2) != StuckOpen || healthy(m, 1, 2) {
		t.Fatal("stuck-open not recorded")
	}
	if !anyDefect(m) || m.CountCrosspointDefects() != 1 {
		t.Fatal("counts wrong")
	}
	m.Set(1, 2, StuckClosed)
	if m.At(1, 2) != StuckClosed || m.CountCrosspointDefects() != 1 {
		t.Fatal("overwrite must replace, not accumulate")
	}
	m.Set(1, 2, None)
	if m.At(1, 2) != None || anyDefect(m) {
		t.Fatal("clearing a crosspoint must clean the map")
	}
	m2 := NewMap(3, 3)
	m2.SetRowBroken(0, true)
	if healthy(m2, 0, 1) || !anyDefect(m2) {
		t.Fatal("broken row must poison its crosspoints")
	}
	if healthy(m2, 1, 1) == false {
		t.Fatal("other rows unaffected")
	}
}

// TestBitsetMatchesShadowModel drives the bitset map and a naive
// shadow model through an identical random operation stream and
// requires every observable to agree — the representation-equivalence
// property test for the word-plane rewrite.
func TestBitsetMatchesShadowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		R, C := 1+rng.Intn(70), 1+rng.Intn(70)
		m := NewMap(R, C)
		shadow := struct {
			points         []Kind
			rowBrk, colBrk []bool
			rowBrg, colBrg []bool
		}{
			points: make([]Kind, R*C),
			rowBrk: make([]bool, R), colBrk: make([]bool, C),
			rowBrg: make([]bool, R), colBrg: make([]bool, C),
		}
		for op := 0; op < 500; op++ {
			r, c := rng.Intn(R), rng.Intn(C)
			switch rng.Intn(6) {
			case 0:
				k := Kind(rng.Intn(3))
				m.Set(r, c, k)
				shadow.points[r*C+c] = k
			case 1:
				v := rng.Intn(2) == 0
				m.SetRowBroken(r, v)
				shadow.rowBrk[r] = v
			case 2:
				v := rng.Intn(2) == 0
				m.SetColBroken(c, v)
				shadow.colBrk[c] = v
			case 3:
				if r < R-1 {
					v := rng.Intn(2) == 0
					m.SetRowBridge(r, v)
					shadow.rowBrg[r] = v
				}
			case 4:
				if c < C-1 {
					v := rng.Intn(2) == 0
					m.SetColBridge(c, v)
					shadow.colBrg[c] = v
				}
			case 5:
				if m.At(r, c) != shadow.points[r*C+c] {
					t.Fatalf("At(%d,%d) diverged", r, c)
				}
			}
		}
		count, any := 0, false
		for i, k := range shadow.points {
			if k != None {
				count++
				any = true
			}
			if got := m.At(i/C, i%C); got != k {
				t.Fatalf("trial %d: At(%d,%d)=%v want %v", trial, i/C, i%C, got, k)
			}
			wantHealthy := k == None && !shadow.rowBrk[i/C] && !shadow.colBrk[i%C]
			if healthy(m, i/C, i%C) != wantHealthy {
				t.Fatalf("trial %d: healthy(%d,%d) diverged", trial, i/C, i%C)
			}
		}
		for r := 0; r < R; r++ {
			any = any || shadow.rowBrk[r] || shadow.rowBrg[r]
			if m.RowBroken(r) != shadow.rowBrk[r] {
				t.Fatal("RowBroken diverged")
			}
			if r < R-1 && m.RowBridge(r) != shadow.rowBrg[r] {
				t.Fatal("RowBridge diverged")
			}
		}
		for c := 0; c < C; c++ {
			any = any || shadow.colBrk[c] || shadow.colBrg[c]
			if m.ColBroken(c) != shadow.colBrk[c] {
				t.Fatal("ColBroken diverged")
			}
			if c < C-1 && m.ColBridge(c) != shadow.colBrg[c] {
				t.Fatal("ColBridge diverged")
			}
		}
		if m.CountCrosspointDefects() != count {
			t.Fatalf("trial %d: count %d want %d", trial, m.CountCrosspointDefects(), count)
		}
		if anyDefect(m) != any {
			t.Fatalf("trial %d: AnyDefect %v want %v", trial, anyDefect(m), any)
		}
	}
}

// TestPlaneWordInvariants checks the all-zero-beyond-C invariant the
// mask intersections in bism rely on, at awkward widths around word
// boundaries.
func TestPlaneWordInvariants(t *testing.T) {
	for _, c := range []int{1, 63, 64, 65, 127, 128, 129} {
		m := NewMap(3, c)
		for ci := 0; ci < c; ci++ {
			m.Set(1, ci, StuckOpen)
			m.Set(2, ci, StuckClosed)
		}
		validLast := ^uint64(0)
		if c&63 != 0 {
			validLast = uint64(1)<<uint(c&63) - 1
		}
		for r := 0; r < 3; r++ {
			for _, plane := range [][]uint64{m.OpenRow(r), m.ClosedRow(r)} {
				if len(plane) != m.w {
					t.Fatalf("c=%d: row plane has %d words, want %d", c, len(plane), m.w)
				}
				if last := plane[len(plane)-1]; last&^validLast != 0 {
					t.Fatalf("c=%d: bits beyond C set in last word: %#x", c, last)
				}
			}
		}
		if m.CountCrosspointDefects() != 2*c {
			t.Fatalf("c=%d: count %d want %d", c, m.CountCrosspointDefects(), 2*c)
		}
	}
}

func TestRandomDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	m := Random(n, n, UniformCrosspoint(0.1), rng)
	d := m.CountCrosspointDefects()
	// Expect ~410 of 4096; allow wide slack.
	if d < 250 || d > 600 {
		t.Fatalf("defect count %d implausible for p=0.1", d)
	}
	// Stuck-open should dominate 80/20.
	open := 0
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if m.At(r, c) == StuckOpen {
				open++
			}
		}
	}
	if float64(open)/float64(d) < 0.6 {
		t.Fatalf("open fraction %d/%d too low", open, d)
	}
}

// TestSparseMatchesScalarStatistically pins the sparse sampler against
// the retained scalar reference: over many seeded dies, mean crosspoint
// defect counts must agree within Monte Carlo tolerance.
func TestSparseMatchesScalarStatistically(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"uniform2%", UniformCrosspoint(0.02)},
		{"uniform20%", UniformCrosspoint(0.20)},
	}
	const n, trials = 48, 60
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rngA := rand.New(rand.NewSource(9))
			rngB := rand.New(rand.NewSource(10009))
			sparsePts, scalarPts := 0, 0
			for i := 0; i < trials; i++ {
				sparsePts += Random(n, n, tc.p, rngA).CountCrosspointDefects()
				scalarPts += RandomScalar(n, n, tc.p, rngB).CountCrosspointDefects()
			}
			// Counts are sums of thousands of Bernoulli draws; a 25%
			// relative band is > 5 sigma for every case above.
			g, w := float64(sparsePts), float64(scalarPts)
			if math.Abs(g-w) > 0.25*math.Max(w, 40) {
				t.Fatalf("crosspoint defects diverge: sparse %d vs scalar %d", sparsePts, scalarPts)
			}
		})
	}
}

// TestSparseSamplerChiSquare checks positional uniformity of the skip
// sampler with fixed seeds: defect positions bucketed into 8 strata of
// the flat site index must be compatible with a uniform distribution
// (the classic failure mode of a wrong gap formula is bias toward low
// or high indices).
func TestSparseSamplerChiSquare(t *testing.T) {
	const n, trials, strata = 64, 80, 8
	rng := rand.New(rand.NewSource(1234))
	var buckets [strata]int
	total := 0
	for i := 0; i < trials; i++ {
		m := Random(n, n, UniformCrosspoint(0.05), rng)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if m.At(r, c) != None {
					buckets[(r*n+c)*strata/(n*n)]++
					total++
				}
			}
		}
	}
	if total < 10000 {
		t.Fatalf("sampler produced only %d defects; expected ~16k", total)
	}
	exp := float64(total) / strata
	chi2 := 0.0
	for _, b := range buckets {
		d := float64(b) - exp
		chi2 += d * d / exp
	}
	// 7 degrees of freedom: P(chi2 > 24.3) ≈ 0.001. Fixed seeds make
	// this deterministic, not flaky.
	if chi2 > 24.3 {
		t.Fatalf("chi-square %.1f over strata %v (exp %.0f each): sampler positionally biased", chi2, buckets, exp)
	}
}

// TestVisitBernoulliExtremes covers the degenerate probabilities.
func TestVisitBernoulliExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	calls := 0
	VisitBernoulli(rng, 0, 100, func(int) { calls++ })
	if calls != 0 {
		t.Fatal("p=0 must visit nothing")
	}
	VisitBernoulli(rng, 1, 100, func(i int) {
		if i != calls {
			t.Fatal("p=1 must visit in order")
		}
		calls++
	})
	if calls != 100 {
		t.Fatal("p=1 must visit everything")
	}
	VisitBernoulli(rng, 0.5, 0, func(int) { t.Fatal("n=0 must visit nothing") })
	// Indices stay in range and strictly increase.
	last := -1
	VisitBernoulli(rng, 0.3, 1000, func(i int) {
		if i <= last || i >= 1000 {
			t.Fatalf("bad index %d after %d", i, last)
		}
		last = i
	})
}

func TestRandomZeroDensityClean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Random(16, 16, Params{}, rng)
	if anyDefect(m) {
		t.Fatal("zero-probability map must be clean")
	}
}

func TestRandomReproducible(t *testing.T) {
	a := Random(8, 8, UniformCrosspoint(0.2), rand.New(rand.NewSource(7)))
	b := Random(8, 8, UniformCrosspoint(0.2), rand.New(rand.NewSource(7)))
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if a.At(r, c) != b.At(r, c) {
				t.Fatal("same seed must give same map")
			}
		}
	}
}

func TestRandomIntoReusesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMap(16, 16)
	RandomInto(m, UniformCrosspoint(0.5), rng)
	if !anyDefect(m) {
		t.Fatal("dense draw produced no defects")
	}
	RandomInto(m, Params{}, rng)
	if anyDefect(m) {
		t.Fatal("RandomInto must reset previous defects")
	}
	// A fixed seed gives the same map whether drawn fresh or into scratch.
	a := Random(16, 16, UniformCrosspoint(0.1), rand.New(rand.NewSource(3)))
	RandomInto(m, UniformCrosspoint(0.1), rand.New(rand.NewSource(3)))
	if a.String() != m.String() {
		t.Fatal("RandomInto diverges from Random at equal seed")
	}
}

func TestStringRender(t *testing.T) {
	m := NewMap(2, 3)
	m.Set(0, 1, StuckOpen)
	m.Set(1, 2, StuckClosed)
	m.SetRowBroken(1, true)
	s := m.String()
	if !strings.Contains(s, "o") || !strings.Contains(s, "c") || !strings.Contains(s, "!") {
		t.Fatalf("rendering missing markers:\n%s", s)
	}
}

func TestKindString(t *testing.T) {
	if None.String() != "ok" || StuckOpen.String() != "stuck-open" || StuckClosed.String() != "stuck-closed" {
		t.Fatal("kind strings")
	}
}

func TestNewMapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMap(0, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	m := NewMap(4, 4)
	mustPanic(func() { m.At(0, 4) })
	mustPanic(func() { m.Set(4, 0, StuckOpen) })
	mustPanic(func() { m.SetRowBridge(3, true) })
	mustPanic(func() { m.SetColBridge(-1, true) })
}
