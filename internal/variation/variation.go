// Package variation models parametric variation of nano-crossbar
// arrays and the variation-tolerant mapping the paper's Section IV
// targets ("variation tolerance to ensure the predictability and
// performance (for parametric variations)").
//
// Every crosspoint carries a multiplicative delay factor drawn from a
// lognormal distribution around the nominal switch delay — the
// standard first-order model for self-assembled nanowire parameter
// spread. The delay of a conducting lattice is the fastest conducting
// top-to-bottom path (parallel paths conduct in parallel; the earliest
// arrival dominates), and the array's critical delay is the worst such
// delay over the function's on-set. Variation-aware placement picks,
// among candidate positions of the logical array inside the larger
// physical array, the one minimizing critical delay — reusing the
// reconfigurability that the defect flows already exploit.
package variation

import (
	"fmt"
	"math"
	"math/rand"

	"nanoxbar/internal/lattice"
)

// Map holds per-crosspoint delay factors of an R×C physical array.
type Map struct {
	R, C  int
	delay []float64 // row-major multiplicative delay factors
}

// NewMap returns a variation-free map (all factors 1).
func NewMap(r, c int) *Map {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("variation: invalid shape %d×%d", r, c))
	}
	m := &Map{R: r, C: c, delay: make([]float64, r*c)}
	for i := range m.delay {
		m.delay[i] = 1
	}
	return m
}

// At returns the delay factor of crosspoint (r, c).
func (m *Map) At(r, c int) float64 { return m.delay[r*m.C+c] }

// Lognormal draws a map whose factors are exp(N(0, sigma)) — median 1,
// spread controlled by sigma (sigma 0.3–0.7 covers published nanowire
// spreads).
func Lognormal(r, c int, sigma float64, rng *rand.Rand) *Map {
	m := NewMap(r, c)
	for i := range m.delay {
		m.delay[i] = math.Exp(sigma * rng.NormFloat64())
	}
	return m
}

// PathDelay returns the fastest conducting top-to-bottom path delay of
// the lattice at assignment a, with site (i,j) of the lattice placed on
// physical crosspoint (rowOff+i, colOff+j). It returns +Inf when the
// lattice does not conduct at a.
func PathDelay(l *lattice.Lattice, m *Map, rowOff, colOff int, a uint64) float64 {
	if rowOff < 0 || colOff < 0 || rowOff+l.R > m.R || colOff+l.C > m.C {
		panic(fmt.Sprintf("variation: %d×%d lattice at (%d,%d) exceeds %d×%d array",
			l.R, l.C, rowOff, colOff, m.R, m.C))
	}
	const inf = math.MaxFloat64
	dist := make([]float64, l.R*l.C)
	on := make([]bool, l.R*l.C)
	for i := range dist {
		dist[i] = inf
		on[i] = l.At(i/l.C, i%l.C).On(a)
	}
	cellDelay := func(i int) float64 {
		return m.At(rowOff+i/l.C, colOff+i%l.C)
	}
	// Dijkstra without a heap: the grids are small (≤ a few hundred
	// cells), so the O(V²) scan is cheaper than heap bookkeeping.
	for c := 0; c < l.C; c++ {
		if on[c] {
			dist[c] = cellDelay(c)
		}
	}
	settled := make([]bool, l.R*l.C)
	for {
		best, bestD := -1, inf
		for i, d := range dist {
			if !settled[i] && d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			return inf // no conducting path
		}
		r, c := best/l.C, best%l.C
		if r == l.R-1 {
			return bestD
		}
		settled[best] = true
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= l.R || nc < 0 || nc >= l.C {
				continue
			}
			ni := nr*l.C + nc
			if on[ni] && !settled[ni] && bestD+cellDelay(ni) < dist[ni] {
				dist[ni] = bestD + cellDelay(ni)
			}
		}
	}
}

// CriticalDelay returns the worst-case conducting delay over all
// on-set assignments of the n-variable function the lattice computes.
func CriticalDelay(l *lattice.Lattice, m *Map, rowOff, colOff, n int) float64 {
	worst := 0.0
	for a := uint64(0); a < uint64(1)<<uint(n); a++ {
		if !l.Eval(a) {
			continue
		}
		if d := PathDelay(l, m, rowOff, colOff, a); d > worst {
			worst = d
		}
	}
	return worst
}

// Placement is a candidate position of the lattice on the array.
type Placement struct {
	RowOff, ColOff int
	Delay          float64
}

// BestPlacement scans all offsets of the lattice inside the physical
// array and returns the placement with minimum critical delay plus the
// delay of the worst placement (for reporting the variation-awareness
// gain). Stride subsamples offsets for large arrays (1 = exhaustive).
func BestPlacement(l *lattice.Lattice, m *Map, n, stride int) (best, worst Placement) {
	if stride < 1 {
		stride = 1
	}
	first := true
	for ro := 0; ro+l.R <= m.R; ro += stride {
		for co := 0; co+l.C <= m.C; co += stride {
			d := CriticalDelay(l, m, ro, co, n)
			p := Placement{RowOff: ro, ColOff: co, Delay: d}
			if first || d < best.Delay {
				best = p
			}
			if first || d > worst.Delay {
				worst = p
			}
			first = false
		}
	}
	if first {
		panic("variation: lattice larger than the physical array")
	}
	return best, worst
}

// GuardBand Monte-Carlo estimates the delay distribution of a lattice
// under variation: mean and the q-quantile (e.g. 0.99) of the critical
// delay across random variation maps, at a fixed placement (0,0) on a
// lattice-sized array. The quantile is the guard band a designer must
// budget for predictable performance.
func GuardBand(l *lattice.Lattice, n int, sigma float64, trials int, q float64, rng *rand.Rand) (mean, quantile float64) {
	if trials < 1 || q <= 0 || q >= 1 {
		panic("variation: bad GuardBand parameters")
	}
	ds := make([]float64, trials)
	sum := 0.0
	for t := 0; t < trials; t++ {
		m := Lognormal(l.R, l.C, sigma, rng)
		d := CriticalDelay(l, m, 0, 0, n)
		ds[t] = d
		sum += d
	}
	// Selection by partial sort (small trials counts).
	idx := int(q * float64(trials))
	if idx >= trials {
		idx = trials - 1
	}
	for i := 0; i <= idx; i++ {
		min := i
		for j := i + 1; j < trials; j++ {
			if ds[j] < ds[min] {
				min = j
			}
		}
		ds[i], ds[min] = ds[min], ds[i]
	}
	return sum / float64(trials), ds[idx]
}
