package bism

import (
	"math/rand"
	"testing"

	"nanoxbar/internal/defect"
)

// benchChip draws a 64×64 chip at 5% crosspoint density with a few wire
// faults — a die the greedy repair loop has to work on, not a clean
// first-try pass.
func benchChip(b *testing.B) (*Chip, *App) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	p := defect.UniformCrosspoint(0.05)
	p.PRowBreak, p.PColBreak = 0.02, 0.02
	p.PRowBridge, p.PColBridge = 0.01, 0.01
	d := defect.Random(64, 64, p, rng)
	app := RandomApp(16, 16, 0.5, rng)
	return NewChip(d), app
}

// BenchmarkCheck measures one full mask-based BIST/BISD session: the
// masks are marked stale on every iteration, so each session rebuilds
// them as it does after a fresh random configuration.
func BenchmarkCheck(b *testing.B) {
	ch, app := benchChip(b)
	rng := rand.New(rand.NewSource(2))
	scr := getScratch(ch.N, app.R)
	defer putScratch(scr)
	m := scr.mapping(app)
	scr.randomMapping(ch.N, app, rng, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.stale = true
		ch.check(app, m, scr)
	}
}

// BenchmarkCheckScalar is the retained per-crosspoint reference session.
func BenchmarkCheckScalar(b *testing.B) {
	ch, app := benchChip(b)
	rng := rand.New(rand.NewSource(2))
	scr := getScratch(ch.N, app.R)
	m := scr.mapping(app)
	scr.randomMapping(ch.N, app, rng, m)
	mc := m.clone()
	putScratch(scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.checkScalar(app, mc)
	}
}

// BenchmarkGreedyMap runs whole greedy self-mapping sessions.
func BenchmarkGreedyMap(b *testing.B) {
	ch, app := benchChip(b)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Greedy{}.Map(ch, app, 200, rng)
	}
}
