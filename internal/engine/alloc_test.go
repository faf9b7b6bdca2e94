//go:build !race

// The allocation guard lives outside race builds: the race runtime
// instruments allocations of its own, inflating the byte counts.

package engine

import (
	"context"
	"runtime"
	"testing"
)

// TestYieldSweepBytesFlatInDies: a non-streaming sweep allocates per
// request and per worker, never per die — no per-die MapResult and no
// per-die outcome slice. A sweep 100 times longer must allocate within
// 8 KB of the short one.
func TestYieldSweepBytesFlatInDies(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 16})
	defer e.Close()
	sweepBytes := func(chips int) uint64 {
		req := Request{Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Density: 0.02, Chips: chips, ChipSize: 64, Seed: 42}
		if r := e.DoCtx(context.Background(), req); !r.Ok() { // warm the synthesis cache
			t.Fatal(r.Error)
		}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if r := e.DoCtx(context.Background(), req); !r.Ok() {
				t.Fatal(r.Error)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	short, long := sweepBytes(64), sweepBytes(6400)
	t.Logf("64 dies: %d B, 6400 dies: %d B", short, long)
	if long > short+8<<10 {
		t.Fatalf("a 6400-die sweep allocates %d B, a 64-die sweep %d B: the bytes grow with the die count", long, short)
	}
}

// TestSubmitAcceptAllocFree: the close guard keeps submitWait's
// accepting path allocation-free.
func TestSubmitAcceptAllocFree(t *testing.T) {
	p := newPool(16) // 64 slots
	defer p.close()
	job := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.submitWait(context.Background(), 0, job); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an accepted submission allocates %.1f times, want 0", allocs)
	}
}
