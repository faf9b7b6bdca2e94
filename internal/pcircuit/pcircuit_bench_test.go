package pcircuit

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/benchfn"
)

// BenchmarkPCircuitBest runs the full P-circuit search — both modes on
// every support variable, each a handful of block syntheses — which is
// most of a cold four-terminal synthesis: on majority-7 and on a
// seeded random 6-variable function.
func BenchmarkPCircuitBest(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec benchfn.Spec
	}{
		{"maj7", benchfn.Majority(7)},
		{"rnd6", benchfn.Spec{F: randTT(6, rand.New(rand.NewSource(9)))}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Best(bc.spec.F, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
