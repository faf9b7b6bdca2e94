package redundancy

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/truthtab"
)

func benchLattice(b *testing.B) *lattice.Lattice {
	b.Helper()
	f := truthtab.FromFunc(3, func(a uint64) bool {
		return a&1+a>>1&1+a>>2&1 >= 2
	})
	res, err := latsynth.DualMethod(f, latsynth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return res.Lattice
}

// BenchmarkErrorRates is the CI-gated transient Monte Carlo number:
// TMR error estimation, 4096 trials packed 64 per word.
func BenchmarkErrorRates(b *testing.B) {
	l := benchLattice(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ErrorRates(l, 3, 3, 0.01, 4096, rng)
	}
}

func BenchmarkTransientEval64(b *testing.B) {
	l := benchLattice(b)
	rng := rand.New(rand.NewSource(2))
	mc := NewMC()
	var a [64]uint64
	for i := range a {
		a[i] = rng.Uint64() % 8
	}
	mc.Load(l, &a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.TransientEval64(0.01, rng)
	}
}

func BenchmarkLifetime(b *testing.B) {
	l := benchLattice(b)
	p := LifetimeParams{
		ChipN: 48, FaultsPerEp: 1.0, Epochs: 400,
		RetestEvery: 2, RemapBudget: 200, Seed: 11,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lifetime(l, 3, p)
	}
}
