//go:build !race

// The allocation guard lives outside race builds: the race runtime
// instruments allocations of its own, inflating bytes per op.

package httpapi

import "testing"

// TestV2RoundTripAllocBound keeps the cache-hit round trip lean: a
// per-request read buffer sized for long event lines (64 KiB, say)
// would trip it.
func TestV2RoundTripAllocBound(t *testing.T) {
	r := testing.Benchmark(BenchmarkV2RoundTripSynthesizeHit)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if b := r.AllocedBytesPerOp(); b >= 32<<10 {
		t.Fatalf("cache-hit round trip allocates %d B/op, want < %d", b, 32<<10)
	}
}
