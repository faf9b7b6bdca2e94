//go:build !race

// The allocation guard lives outside race builds: the race runtime
// instruments allocations of its own.

package core

import (
	"testing"

	"nanoxbar/internal/benchfn"
)

// TestSynthesizeAllocBound keeps cold four-terminal synthesis of 9sym
// lean: per-cell literal slices in the dual grid, a fresh lattice per
// post-reduction trial or a bitset per prime pair in the QM covering
// search would each trip it. What remains is the ISOP fallback's.
func TestSynthesizeAllocBound(t *testing.T) {
	f := benchfn.NineSym().F
	opts := DefaultOptions()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Synthesize(f, FourTerminal, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20_000 {
		t.Fatalf("Synthesize(9sym, four-terminal) allocates %.0f times, want ≤ 20000", allocs)
	}
}
