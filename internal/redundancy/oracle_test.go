package redundancy

import (
	"math/rand"

	"nanoxbar/internal/lattice"
)

// ErrorRatesScalar is the scalar reference for ErrorRates: one graph
// walk per trial and per redundant copy. The property tests pin the
// bit-parallel path against it, and BenchmarkErrorRatesScalar times it.
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
