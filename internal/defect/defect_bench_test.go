package defect

import (
	"math/rand"
	"testing"
)

// BenchmarkDefectRandom is the CI-gated defect-map generation number:
// sparse geometric-gap sampling at a realistic 1% density.
func BenchmarkDefectRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMap(64, 64)
	p := UniformCrosspoint(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomInto(m, p, rng)
	}
}

func BenchmarkDefectRandom256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMap(256, 256)
	p := UniformCrosspoint(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomInto(m, p, rng)
	}
}

func BenchmarkDefectRandomClustered(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMap(64, 64)
	p := UniformCrosspoint(0.01)
	p.Clustered = true
	p.ClusterCount = 3
	p.ClusterRadius = 5
	p.ClusterBoost = 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomInto(m, p, rng)
	}
}
