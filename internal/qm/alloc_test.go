//go:build !race

// The allocation guard lives outside race builds: the race runtime
// instruments allocations of its own.

package qm

import (
	"testing"

	"nanoxbar/internal/truthtab"
)

// TestMinimizeAllocBound: the implicant planes and the covering matrix,
// frames and masks come from pools, so a minimization allocates only
// MinimizeTT's empty don't-care table, the selection and the cover.
func TestMinimizeAllocBound(t *testing.T) {
	f := benchFunc(6, 2)
	opts := DefaultOptions()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MinimizeTT(f, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("MinimizeTT allocates %.0f times, want ≤ 3", allocs)
	}
}

// TestPrimesAllocBound: the implicant planes come from a pool, so prime
// generation allocates only the returned list.
func TestPrimesAllocBound(t *testing.T) {
	f := benchFunc(6, 1)
	z := truthtab.Zero(6)
	opts := DefaultOptions()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Primes(f, z, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Primes allocates %.0f times, want ≤ 1", allocs)
	}
}
