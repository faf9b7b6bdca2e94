//go:build !race

// The allocation guards live outside race builds: the race runtime
// instruments allocations of its own.

package latsynth

import "testing"

// TestDualMethodAllocBound: covers, grid, verification and
// post-reduction of a dense 6-variable function allocate a bounded
// handful of buffers, not one literal slice per grid cell.
func TestDualMethodAllocBound(t *testing.T) {
	f := benchTT(6, 9)
	opts := DefaultOptions()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DualMethod(f, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("DualMethod allocates %.0f times, want ≤ 12", allocs)
	}
}

// TestPostReduceAllocBound: deletion trials run in place on a pooled
// evaluator, so the only allocation is the copy the first accepted
// deletion makes (a lattice and its sites).
func TestPostReduceAllocBound(t *testing.T) {
	f := benchTT(6, 9)
	opts := DefaultOptions()
	opts.PostReduce = false
	res, err := DualMethod(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { PostReduce(res.Lattice, f) })
	if allocs > 2 {
		t.Fatalf("PostReduce allocates %.0f times, want ≤ 2", allocs)
	}
}
