package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
)

// occupyWorkers takes every run slot, as if Workers requests were
// running, and returns the function that frees them. The test can then
// fill and overflow the queue deterministically with fillQueue.
func occupyWorkers(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	for i := 0; i < e.workers; i++ {
		e.pool.run <- struct{}{}
	}
	var released bool
	return func() {
		if !released {
			released = true
			for i := 0; i < e.workers; i++ {
				<-e.pool.run
			}
		}
	}
}

// fillQueue takes every queue slot, as if 4×Workers admitted requests
// waited for a run slot, and returns the function that frees them.
func fillQueue(t *testing.T, e *Engine) (drain func()) {
	t.Helper()
	if got, want := e.pool.depth(), 4*e.workers; got != want {
		t.Fatalf("queue depth %d, want 4×%d workers = %d", got, e.workers, want)
	}
	for i := 0; i < e.pool.depth(); i++ {
		e.pool.queue <- struct{}{}
	}
	return func() {
		for i := 0; i < e.pool.depth(); i++ {
			<-e.pool.queue
		}
	}
}

func TestAdmissionShedsWhenQueueSaturated(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 8, MaxQueueWait: time.Millisecond})
	defer e.Close()
	release := occupyWorkers(t, e)
	defer release()
	drain := fillQueue(t, e) // the four slots of a one-worker engine

	res := e.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}})
	if res.Ok() {
		t.Fatal("saturated engine accepted the request")
	}
	if !errors.Is(res.TypedErr(), apierr.ErrOverloaded) {
		t.Fatalf("TypedErr = %v, want ErrOverloaded", res.TypedErr())
	}
	if apierr.CodeOf(res.Err) != apierr.CodeOverloaded {
		t.Fatalf("Code = %q, want %q", apierr.CodeOf(res.Err), apierr.CodeOverloaded)
	}
	if st := e.Stats(); st.Shed != 1 || st.Failures != 1 {
		t.Fatalf("stats: shed=%d failures=%d, want 1/1", st.Shed, st.Failures)
	}

	// With the queue drained and the worker free, the same request is
	// admitted.
	drain()
	release()
	if res := e.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}}); !res.Ok() {
		t.Fatalf("post-drain request failed: %v", res.Err)
	}
}

func TestAdmissionBlocksForeverWithoutBudget(t *testing.T) {
	// MaxQueueWait 0 preserves the original blocking submission: a full
	// queue delays, never sheds.
	e := New(Config{Workers: 1, CacheSize: 8})
	defer e.Close()
	release := occupyWorkers(t, e)
	defer release() // a failing fillQueue must not leave Close waiting on the worker
	drain := fillQueue(t, e)
	go func() { time.Sleep(10 * time.Millisecond); drain(); release() }()

	res := e.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}})
	if !res.Ok() {
		t.Fatalf("blocking submission failed: %v (code %v)", res.Err, apierr.CodeOf(res.Err))
	}
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("shed = %d, want 0", st.Shed)
	}
}

func TestDegradationAfterQueueWait(t *testing.T) {
	// DegradeAfter of 1ns: any real queue wait exceeds it, so every
	// request runs degraded.
	e := New(Config{Workers: 2, CacheSize: 8, DegradeAfter: time.Nanosecond})
	defer e.Close()

	res := e.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}})
	if !res.Ok() {
		t.Fatalf("degraded request failed: %v", res.Err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if res.Synthesis == nil || res.Synthesis.Area <= 0 {
		t.Fatalf("degraded synthesis produced no implementation: %+v", res.Synthesis)
	}
	if st := e.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Degraded)
	}
}

func TestDegradedMatchesExactFunction(t *testing.T) {
	// The degraded path trades area, never correctness: both flows must
	// implement the same function (the engine's synth checks equivalence
	// internally; here we just confirm both succeed and the degraded
	// area is no better than exact).
	exact := New(Config{Workers: 1, CacheSize: 8})
	defer exact.Close()
	deg := New(Config{Workers: 1, CacheSize: 8, DegradeAfter: time.Nanosecond})
	defer deg.Close()

	for _, fn := range []string{"maj3", "xor4"} {
		re := exact.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: fn}})
		rd := deg.DoCtx(context.Background(), Request{Kind: KindSynthesize, Function: FunctionSpec{Name: fn}})
		if !re.Ok() || !rd.Ok() {
			t.Fatalf("%s: exact ok=%v degraded ok=%v", fn, re.Ok(), rd.Ok())
		}
		if !rd.Degraded {
			t.Fatalf("%s: expected degraded result", fn)
		}
		if rd.Synthesis.Area < re.Synthesis.Area {
			t.Fatalf("%s: degraded area %d beat exact %d — exact flow regressed",
				fn, rd.Synthesis.Area, re.Synthesis.Area)
		}
	}
}
