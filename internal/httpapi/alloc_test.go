//go:build !race

// The allocation guards live outside race builds: the race runtime
// instruments allocations of its own, inflating bytes per op.

package httpapi

import "testing"

// TestV2RoundTripAllocBound keeps the cache-hit round trip lean. The
// bounds sit at most 5% above the measured 149 allocs and 15.5 KB per
// op (2-vCPU VM, Go 1.24.0): a per-request read buffer sized for long
// event lines (64 KiB, say) trips the bytes, and a frame codec that
// allocates per field, as encoding/json did (175 allocs), trips the
// count.
func TestV2RoundTripAllocBound(t *testing.T) {
	const maxAllocs, maxBytes = 156, 16300
	r := testing.Benchmark(BenchmarkV2RoundTripSynthesizeHit)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if a := r.AllocsPerOp(); a > maxAllocs {
		t.Errorf("cache-hit round trip makes %d allocs/op, want <= %d", a, maxAllocs)
	}
	if b := r.AllocedBytesPerOp(); b > maxBytes {
		t.Errorf("cache-hit round trip allocates %d B/op, want <= %d", b, maxBytes)
	}
}

// TestV2YieldStreamAllocBound keeps each streamed die cheap at both
// ends: the engine's MapOutcome, its frame and the client's decoded
// copy. BenchmarkV2YieldStream's 64-die sweep measured 509 allocs (7.95
// a die) on the same VM, against 1427 (22.3 a die) with encoding/json
// frames; the bound sits under 5% above it.
func TestV2YieldStreamAllocBound(t *testing.T) {
	const dies, maxPerDie = 64, 8.3
	r := testing.Benchmark(BenchmarkV2YieldStream)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if perDie := float64(r.AllocsPerOp()) / dies; perDie > maxPerDie {
		t.Errorf("a streamed die costs %.2f allocs (%d per %d-die sweep), want <= %.1f",
			perDie, r.AllocsPerOp(), dies, maxPerDie)
	}
}
