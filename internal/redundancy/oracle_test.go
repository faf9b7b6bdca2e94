package redundancy

import (
	"fmt"
	"math/rand"

	"nanoxbar/internal/lattice"
)

// ErrorRatesScalar is the scalar reference for ErrorRates: one graph
// walk per trial and per redundant copy. The property tests pin the
// bit-parallel path against it.
func ErrorRatesScalar(l *lattice.Lattice, nVars int, nmr int, p float64, trials int, rng *rand.Rand) (bare, protected float64) {
	m := NewNMR(l, nmr)
	bareErr, protErr := 0, 0
	size := uint64(1) << uint(nVars)
	for t := 0; t < trials; t++ {
		a := rng.Uint64() % size
		want := l.Eval(a)
		if TransientEval(l, a, p, rng) != want {
			bareErr++
		}
		if m.EvalTransient(a, p, rng) != want {
			protErr++
		}
	}
	return float64(bareErr) / float64(trials), float64(protErr) / float64(trials)
}

// TransientEval evaluates the lattice at assignment a with each site's
// switch state flipped independently with probability p — the
// single-evaluation transient upset model. It is the scalar reference
// MC.TransientEval64 is pinned against.
func TransientEval(l *lattice.Lattice, a uint64, p float64, rng *rand.Rand) bool {
	flipped := make([]bool, l.R*l.C)
	any := false
	for i := range flipped {
		if rng.Float64() < p {
			flipped[i] = true
			any = true
		}
	}
	if !any {
		return l.Eval(a)
	}
	return evalFlipped(l, a, flipped)
}

// evalFlipped runs the top-bottom connectivity with chosen sites
// inverted.
func evalFlipped(l *lattice.Lattice, a uint64, flipped []bool) bool {
	on := make([]bool, l.R*l.C)
	for i := range on {
		on[i] = l.At(i/l.C, i%l.C).On(a) != flipped[i]
	}
	stack := make([]int, 0, l.C)
	seen := make([]bool, l.R*l.C)
	for c := 0; c < l.C; c++ {
		if on[c] {
			stack = append(stack, c)
			seen[c] = true
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r, c := cur/l.C, cur%l.C
		if r == l.R-1 {
			return true
		}
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= l.R || nc < 0 || nc >= l.C {
				continue
			}
			ni := nr*l.C + nc
			if on[ni] && !seen[ni] {
				seen[ni] = true
				stack = append(stack, ni)
			}
		}
	}
	return false
}

// NMR is the scalar N-modular-redundant reference: R copies whose
// outputs feed a majority voter (the voter itself is assumed reliable,
// the standard TMR assumption — see DESIGN.md).
type NMR struct {
	Copies []*lattice.Lattice
}

// NewNMR replicates the lattice n times (n odd).
func NewNMR(l *lattice.Lattice, n int) *NMR {
	if n < 1 || n%2 == 0 {
		panic(fmt.Sprintf("redundancy: modular redundancy needs odd n, got %d", n))
	}
	copies := make([]*lattice.Lattice, n)
	for i := range copies {
		copies[i] = l.Clone()
	}
	return &NMR{Copies: copies}
}

// Area returns the total crosspoint cost of the redundant system.
func (m *NMR) Area() int {
	a := 0
	for _, c := range m.Copies {
		a += c.Area()
	}
	return a
}

// EvalTransient evaluates all copies under independent transient upsets
// and returns the majority vote (scalar reference path).
func (m *NMR) EvalTransient(a uint64, p float64, rng *rand.Rand) bool {
	ones := 0
	for _, c := range m.Copies {
		if TransientEval(c, a, p, rng) {
			ones++
		}
	}
	return ones*2 > len(m.Copies)
}
