//go:build !race

// The allocation guard lives outside race builds: the race runtime
// instruments allocations of its own.

package qm

import (
	"testing"

	"nanoxbar/internal/truthtab"
)

// TestMinimizeAllocBound: the covering search keeps one scratch frame
// per depth and masks each prime's coverage once per dominance sweep,
// so its allocations do not grow with the nodes or prime pairs visited.
func TestMinimizeAllocBound(t *testing.T) {
	f := benchFunc(6, 2)
	opts := DefaultOptions()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MinimizeTT(f, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Fatalf("MinimizeTT allocates %.0f times, want ≤ 60", allocs)
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
