package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
)

// TestSubmitStreamCanceledUpfront: a batch submitted on a context
// that is already dead must not run any request — every result is
// ErrCanceled.
func TestSubmitStreamCanceledUpfront(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Seed: int64(i), Density: 0.05}
	}
	results := make([]Result, len(reqs))
	var resolved atomic.Int32
	e.SubmitStream(ctx, reqs, func(i int, r Result) {
		results[i] = r
		resolved.Add(1)
	}, nil)
	if n := resolved.Load(); n != 16 {
		t.Fatalf("resolved %d requests, want 16", n)
	}
	for i, r := range results {
		if r.Ok() {
			t.Fatalf("result %d ran despite canceled context: %+v", i, r)
		}
		if !errors.Is(r.Err, apierr.ErrCanceled) {
			t.Fatalf("result %d error %v, want ErrCanceled", i, r.Err)
		}
		if apierr.CodeOf(r.Err) != apierr.CodeCanceled {
			t.Fatalf("result %d code %q, want %q", i, apierr.CodeOf(r.Err), apierr.CodeCanceled)
		}
	}
	// No synthesis ran.
	if st := e.Stats(); st.SynthCalls != 0 {
		t.Fatalf("synth calls %d, want 0", st.SynthCalls)
	}
}

// TestSubmitStreamMidBatchCancellation: cancel while the batch is in
// flight on a single-worker engine; queued-but-unstarted requests must
// come back ErrCanceled instead of running to completion. Canceling
// from inside the first completion callback is deterministic: the
// single worker invokes done synchronously before dequeuing its next
// job, so every later request observes a dead context.
func TestSubmitStreamMidBatchCancellation(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 8})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 64
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: KindSynthesize, Function: FunctionSpec{Expr: "x1x2 + x3'"}}
	}
	var completed atomic.Int32
	results := make([]Result, n)
	e.SubmitStream(ctx, reqs, func(i int, r Result) {
		results[i] = r
		if completed.Add(1) == 1 {
			cancel()
		}
	}, nil)

	var ok, canceled int
	for i, r := range results {
		switch {
		case r.Ok():
			ok++
		case errors.Is(r.Err, apierr.ErrCanceled):
			canceled++
		default:
			t.Fatalf("result %d unexpected error %v", i, r.Err)
		}
	}
	if canceled == 0 {
		t.Fatalf("no request was canceled (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("expected at least the first request to complete")
	}
}

// TestQueuedRequestCanceledAtOnce: a request whose context dies while
// it waits for a run slot resolves canceled at once, not when the
// requests ahead of it finish; the same holds for every request of a
// batch, and none resolves after SubmitStream returns.
func TestQueuedRequestCanceledAtOnce(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 8})
	defer e.Close()
	release := occupyWorkers(t, e)
	defer release()
	req := Request{Kind: KindSynthesize, Function: FunctionSpec{TT: "2:0x6"}}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	got := make(chan Result, 1)
	go func() { got <- e.DoCtx(ctx, req) }()
	select {
	case res := <-got:
		if !errors.Is(res.Err, apierr.ErrCanceled) {
			t.Fatalf("queued request canceled with %v, want ErrCanceled", res.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("a request canceled in the queue was still blocked 1 s later, its worker held")
	}

	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	var resolved atomic.Int32
	returned := make(chan struct{})
	go func() {
		e.SubmitStream(ctx, []Request{req, req, req}, func(_ int, r Result) {
			if !errors.Is(r.Err, apierr.ErrCanceled) {
				t.Errorf("queued batch request canceled with %v, want ErrCanceled", r.Err)
			}
			resolved.Add(1)
		}, nil)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("a batch canceled in the queue was still blocked 1 s later, its worker held")
	}
	if n := resolved.Load(); n != 3 {
		t.Fatalf("%d of 3 batch requests resolved when SubmitStream returned, want 3", n)
	}
	release()
	e.Close()
	if n := resolved.Load(); n != 3 {
		t.Fatalf("%d batch results after Close, want the 3 SubmitStream returned with", n)
	}
	if st := e.Stats(); st.SynthCalls != 0 || st.Failures != 4 {
		t.Fatalf("synth_calls=%d failures=%d, want 0/4", st.SynthCalls, st.Failures)
	}
}

// TestYieldMidSweepCancellation: cancel a long yield sweep from its own
// per-die stream; the sweep must stop early and report ErrCanceled.
func TestYieldMidSweepCancellation(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const chips = 5000
	var dies atomic.Int32
	res := e.DoStream(ctx, Request{
		Kind:     KindYield,
		Function: FunctionSpec{Name: "maj3"},
		Density:  0.05,
		Chips:    chips,
		Seed:     7,
	}, func(die int, mr *MapResult, err error) {
		if dies.Add(1) == 3 {
			cancel()
		}
	})
	if res.Ok() {
		t.Fatalf("canceled sweep succeeded: %+v", res.Yield)
	}
	if !errors.Is(res.Err, apierr.ErrCanceled) {
		t.Fatalf("sweep error %v, want ErrCanceled", res.Err)
	}
	if n := dies.Load(); n >= chips {
		t.Fatalf("sweep mapped all %d dies despite cancellation", n)
	}
}

// TestEngineErrorTaxonomy is the engine half of the taxonomy contract:
// each failure class surfaces the right sentinel and wire code.
func TestEngineErrorTaxonomy(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 8})
	defer e.Close()

	tiny := &DefectMapSpec{Rows: []string{"..", ".."}} // 2×2 chip, too small for maj3
	cases := []struct {
		name     string
		req      Request
		sentinel error
		code     string
	}{
		{"unknown benchmark", Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "nope"}}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"bad expression", Request{Kind: KindSynthesize, Function: FunctionSpec{Expr: "x1 +* x2"}}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"ambiguous spec", Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3", Expr: "x1"}}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"bad tech", Request{Kind: KindSynthesize, Function: FunctionSpec{Name: "maj3"}, Tech: "cmos"}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"bad scheme", Request{Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Scheme: "psychic"}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"unknown kind", Request{Kind: Kind("divine"), Function: FunctionSpec{Name: "maj3"}}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"chips over limit", Request{Kind: KindYield, Function: FunctionSpec{Name: "maj3"}, Chips: maxChips + 1}, apierr.ErrBadSpec, apierr.CodeBadSpec},
		{"chip too small", Request{Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Chip: tiny}, apierr.ErrInfeasible, apierr.CodeInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := e.DoCtx(context.Background(), tc.req)
			if res.Ok() {
				t.Fatalf("request unexpectedly succeeded: %+v", res)
			}
			if !errors.Is(res.Err, tc.sentinel) {
				t.Fatalf("error %v (%T), want sentinel %v", res.Err, res.Err, tc.sentinel)
			}
			if apierr.CodeOf(res.Err) != tc.code {
				t.Fatalf("code %q, want %q", apierr.CodeOf(res.Err), tc.code)
			}
			// The wire code and message alone must rebuild the
			// sentinel, as a remote client does.
			if wire := apierr.FromCode(apierr.CodeOf(res.Err), res.Err.Error()); !errors.Is(wire, tc.sentinel) {
				t.Fatalf("wire round-trip lost sentinel: %v", wire)
			}
			var ae *apierr.Error
			if !errors.As(res.Err, &ae) {
				t.Fatalf("errors.As(*apierr.Error) failed for %v", res.Err)
			}
		})
	}
}
