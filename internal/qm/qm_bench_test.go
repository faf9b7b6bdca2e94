package qm

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/truthtab"
)

func benchFunc(n int, seed int64) truthtab.TT {
	rng := rand.New(rand.NewSource(seed))
	f := truthtab.New(n)
	for a := uint64(0); a < f.Size(); a++ {
		if rng.Intn(2) == 1 {
			f.SetBit(a, true)
		}
	}
	return f
}

func BenchmarkPrimes6Var(b *testing.B) {
	f := benchFunc(6, 1)
	z := truthtab.Zero(6)
	for i := 0; i < b.N; i++ {
		if _, err := Primes(f, z, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimize6Var(b *testing.B) {
	f := benchFunc(6, 2)
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeTT(f, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeMaj7(b *testing.B) {
	f := truthtab.FromFunc(7, func(a uint64) bool {
		c := 0
		for v := 0; v < 7; v++ {
			c += int(a >> uint(v) & 1)
		}
		return c >= 4
	})
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeTT(f, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimizeRnd7 minimizes benchfn's rnd7_d20_s3 and its dual,
// as latsynth.Covers does: covering the dual's 106 on-minterms is most
// of that function's cold synthesis.
func BenchmarkMinimizeRnd7(b *testing.B) {
	f, err := truthtab.Parse("7:0x180880e200040aa8020845010a000000")
	if err != nil {
		b.Fatal(err)
	}
	fd := f.Dual()
	for i := 0; i < b.N; i++ {
		for _, g := range []truthtab.TT{f, fd} {
			if _, err := MinimizeTT(g, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}
