// Package benchfn provides the benchmark Boolean functions driving the
// paper-reproduction experiments: generatable classics from the
// MCNC/espresso tradition (symmetric counters rd53/rd73, 9sym, parity,
// majority, multiplexers, adder and comparator slices) plus seeded
// random and seeded D-reducible families. Everything is constructed
// from definitions — no benchmark files needed (see DESIGN.md for the
// substitution rationale).
package benchfn

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"nanoxbar/internal/dreduce"
	"nanoxbar/internal/truthtab"
)

// Spec names one benchmark function.
type Spec struct {
	Name        string
	Description string
	F           truthtab.TT
}

// N returns the variable count.
func (s Spec) N() int { return s.F.NumVars() }

// Majority returns the n-input majority function (n odd).
func Majority(n int) Spec {
	if n%2 == 0 {
		panic("benchfn: majority needs odd n")
	}
	f := truthtab.FromFunc(n, func(a uint64) bool {
		return bits.OnesCount64(a) > n/2
	})
	return Spec{Name: fmt.Sprintf("maj%d", n), Description: fmt.Sprintf("%d-input majority", n), F: f}
}

// Parity returns the n-input odd-parity function (XOR chain) — the
// classic worst case for SOP-constrained technologies.
func Parity(n int) Spec {
	f := truthtab.FromFunc(n, func(a uint64) bool {
		return bits.OnesCount64(a)%2 == 1
	})
	return Spec{Name: fmt.Sprintf("xor%d", n), Description: fmt.Sprintf("%d-input odd parity", n), F: f}
}

// Threshold returns [Σ inputs ≥ t].
func Threshold(n, t int) Spec {
	f := truthtab.FromFunc(n, func(a uint64) bool {
		return bits.OnesCount64(a) >= t
	})
	return Spec{Name: fmt.Sprintf("th%d_%d", n, t), Description: fmt.Sprintf("%d-of-%d threshold", t, n), F: f}
}

// Mux returns the 2^k:1 multiplexer with k select inputs (variables
// 0..k-1) and 2^k data inputs.
func Mux(k int) Spec {
	n := k + 1<<uint(k)
	f := truthtab.FromFunc(n, func(a uint64) bool {
		sel := a & (1<<uint(k) - 1)
		return a>>(uint(k)+uint(sel))&1 == 1
	})
	return Spec{Name: fmt.Sprintf("mux%d", 1<<uint(k)), Description: fmt.Sprintf("%d:1 multiplexer", 1<<uint(k)), F: f}
}

// Rd returns output bit b of the "rdXY"-style symmetric adder (rd53,
// rd73, …): the function counting the number of ones among n inputs and
// emitting bit b of the count.
func Rd(n, b int) Spec {
	f := truthtab.FromFunc(n, func(a uint64) bool {
		return bits.OnesCount64(a)>>uint(b)&1 == 1
	})
	return Spec{Name: fmt.Sprintf("rd%d_s%d", n, b), Description: fmt.Sprintf("bit %d of the %d-input ones-count", b, n), F: f}
}

// NineSym returns the classic 9sym benchmark: 1 iff the number of ones
// among 9 inputs lies in 3..6.
func NineSym() Spec {
	f := truthtab.FromFunc(9, func(a uint64) bool {
		c := bits.OnesCount64(a)
		return c >= 3 && c <= 6
	})
	return Spec{Name: "9sym", Description: "9-input symmetric, ones-count in 3..6", F: f}
}

// AdderBit returns output bit b (0-indexed; b == n is the carry) of an
// n-bit + n-bit adder over 2n inputs (a in low vars, b in high vars).
func AdderBit(n, b int) Spec {
	f := truthtab.FromFunc(2*n, func(x uint64) bool {
		a := x & (1<<uint(n) - 1)
		bb := x >> uint(n)
		return (a+bb)>>uint(b)&1 == 1
	})
	return Spec{Name: fmt.Sprintf("add%d_s%d", n, b), Description: fmt.Sprintf("bit %d of %d-bit addition", b, n), F: f}
}

// ComparatorGT returns [a > b] over 2n inputs.
func ComparatorGT(n int) Spec {
	f := truthtab.FromFunc(2*n, func(x uint64) bool {
		a := x & (1<<uint(n) - 1)
		bb := x >> uint(n)
		return a > bb
	})
	return Spec{Name: fmt.Sprintf("cmp%d", n), Description: fmt.Sprintf("%d-bit a>b comparator", n), F: f}
}

// RandomDensity returns a seeded random function with the given on-set
// density.
func RandomDensity(n int, density float64, seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	f := truthtab.FromFunc(n, func(a uint64) bool {
		return rng.Float64() < density
	})
	return Spec{Name: fmt.Sprintf("rnd%d_d%02d_s%d", n, int(density*100), seed),
		Description: fmt.Sprintf("random %d-var function, density %.2f, seed %d", n, density, seed), F: f}
}

// DReducible returns a seeded random D-reducible function (affine hull
// of the stated codimension).
func DReducible(n, codim int, seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	f, _ := dreduce.RandomDReducible(n, codim, 0.5, rng)
	return Spec{Name: fmt.Sprintf("dred%d_c%d_s%d", n, codim, seed),
		Description: fmt.Sprintf("random D-reducible, n=%d codim=%d seed=%d", n, codim, seed), F: f}
}

// PaperExample is the §III running example f = x1x2 + x1'x2'.
func PaperExample() Spec {
	return Spec{Name: "xnor2", Description: "paper running example x1x2 + x1'x2'",
		F: truthtab.FromMinterms(2, []uint64{0, 3})}
}

// Fig4 is the paper's Fig. 4 lattice function.
func Fig4() Spec {
	f := truthtab.FromFunc(6, func(a uint64) bool {
		x := func(i int) bool { return a>>uint(i-1)&1 == 1 }
		return x(1) && x(2) && x(3) ||
			x(1) && x(2) && x(5) && x(6) ||
			x(2) && x(3) && x(4) && x(5) ||
			x(4) && x(5) && x(6)
	})
	return Spec{Name: "fig4", Description: "Fig.4 lattice function", F: f}
}

// Suite returns the standard benchmark set used by the experiments:
// small enough for exact minimization, spanning symmetric, arithmetic,
// control, and random function shapes.
func Suite() []Spec {
	return []Spec{
		PaperExample(),
		Fig4(),
		Majority(3),
		Majority(5),
		Majority(7),
		Parity(4),
		Parity(5),
		Threshold(6, 2),
		Mux(1),
		Mux(2),
		Rd(5, 0),
		Rd(5, 1),
		Rd(5, 2),
		NineSym(),
		AdderBit(2, 0),
		AdderBit(2, 1),
		AdderBit(2, 2),
		ComparatorGT(2),
		ComparatorGT(3),
		RandomDensity(5, 0.3, 1),
		RandomDensity(6, 0.5, 2),
		RandomDensity(7, 0.2, 3),
		DReducible(6, 1, 4),
		DReducible(7, 2, 5),
	}
}

// byName indexes the suite once: constructing it materializes every
// truth table (the random and D-reducible families are not cheap), far
// too much work to redo on each engine request resolution. The shared
// specs are treated as read-only by all callers.
var byName = sync.OnceValue(func() map[string]Spec {
	suite := Suite()
	m := make(map[string]Spec, len(suite))
	for _, s := range suite {
		m[s.Name] = s
	}
	return m
})

// ByName returns the suite function with the given name.
func ByName(name string) (Spec, bool) {
	s, ok := byName()[name]
	return s, ok
}
