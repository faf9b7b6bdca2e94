//go:build !race

// The zero-allocation assertion lives outside race builds: the race
// runtime instruments allocations of its own, making AllocsPerRun
// unreliable there. The functional property tests still run under
// -race.

package bism

import (
	"math/rand"
	"testing"
)

// TestGreedyRepairZeroAllocs is the acceptance assertion: a repair
// attempt performs zero heap allocations, for Greedy and for Hybrid
// once it switches to repair, on chips whose masks span one and three
// words. The chip is entirely stuck open so every configuration fails
// and the full BIST→BISD→replace/restart loop runs for the whole budget
// without the one success-path mapping clone.
func TestGreedyRepairZeroAllocs(t *testing.T) {
	const attempts = 64
	for _, n := range []int{32, 130} {
		ch := allStuckOpen(n)
		app := RandomApp(8, 8, 0.5, rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(2))
		for _, m := range []Mapper{Greedy{}, Hybrid{}} {
			if mp, _ := m.Map(ch, app, attempts, rng); mp != nil {
				t.Fatal("all-stuck-open chip cannot map")
			}
			allocs := testing.AllocsPerRun(20, func() {
				m.Map(ch, app, attempts, rng)
			})
			if allocs != 0 {
				t.Fatalf("%s on a %d-line chip allocated %.1f times per %d-attempt Map, want 0", m.Name(), n, allocs, attempts)
			}
		}
	}
}
