package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// flakyFront fronts a real httpapi server: the first failFor requests
// (across all paths) get a synthesized 503 with a Retry-After, the rest
// are delegated. calls counts everything that arrived.
type flakyFront struct {
	backend http.Handler
	failFor int64
	calls   atomic.Int64
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.calls.Add(1)
	if n <= f.failFor {
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"unavailable","message":"front: not ready"}}`)
		return
	}
	f.backend.ServeHTTP(w, r)
}

// resilientClient builds a real engine+server behind front and a client
// with deterministic resilience (fake clock).
func resilientClient(t *testing.T, front *flakyFront, cfg client.ResilienceConfig) (*client.Client, *resilience.Fake) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	front.backend = httpapi.New(eng)
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	fc := resilience.NewFake(time.Unix(0, 0))
	if cfg.Clock == nil {
		cfg.Clock = fc
	}
	cl := client.New(ts.URL, client.WithResilience(cfg))
	t.Cleanup(func() { cl.Close() })
	return cl, fc
}

func TestClientRetriesHonoringRetryAfter(t *testing.T) {
	front := &flakyFront{failFor: 2}
	cl, fc := resilientClient(t, front, client.ResilienceConfig{
		Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond},
	})

	syn, err := cl.Synthesize(context.Background(), nanoxbar.TT("2:0x6"))
	if err != nil {
		t.Fatalf("Synthesize after transient 503s: %v", err)
	}
	if syn == nil || syn.Area <= 0 {
		t.Fatalf("bad synthesis: %+v", syn)
	}
	if got := front.calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
	// The server's Retry-After (2s) overrides the 50ms/100ms backoff.
	sleeps := fc.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 2*time.Second || sleeps[1] != 2*time.Second {
		t.Fatalf("sleeps = %v, want [2s 2s]", sleeps)
	}
	st, ok := cl.ResilienceStats()
	if !ok {
		t.Fatal("ResilienceStats not enabled")
	}
	if st.Retry.Attempts != 3 || st.Retry.Retries != 2 || st.Retry.Exhausted != 0 {
		t.Fatalf("retry stats = %+v", st.Retry)
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	front := &flakyFront{failFor: 1 << 30} // never recovers
	// Three failures stay below the breaker's five, so the circuit
	// stays out of this test.
	cl, _ := resilientClient(t, front, client.ResilienceConfig{
		Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})

	_, err := cl.Synthesize(context.Background(), nanoxbar.TT("2:0x6"))
	if !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := front.calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
	st, _ := cl.ResilienceStats()
	if st.Retry.Exhausted != 1 {
		t.Fatalf("retry stats = %+v", st.Retry)
	}
}

func TestClientDoesNotRetryBadRequests(t *testing.T) {
	front := &flakyFront{}
	cl, fc := resilientClient(t, front, client.ResilienceConfig{})

	_, err := cl.Synthesize(context.Background(), nanoxbar.TT("not-a-table"))
	if !errors.Is(err, nanoxbar.ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
	if got := front.calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (bad specs must not retry)", got)
	}
	if len(fc.Sleeps()) != 0 {
		t.Fatalf("client slept %v for a non-retryable error", fc.Sleeps())
	}
}

func TestClientBreakerOpensThenRecovers(t *testing.T) {
	front := &flakyFront{failFor: 5}
	cl, fc := resilientClient(t, front, client.ResilienceConfig{
		Retry: resilience.RetryPolicy{MaxAttempts: 1}, // isolate the breaker
	})
	ctx := context.Background()

	// Five consecutive unavailable failures open the circuit.
	for i := 0; i < 5; i++ {
		if _, err := cl.Synthesize(ctx, nanoxbar.TT("2:0x6")); !errors.Is(err, nanoxbar.ErrUnavailable) {
			t.Fatalf("call %d: %v, want ErrUnavailable", i, err)
		}
	}
	// Open: calls fail fast without touching the server.
	before := front.calls.Load()
	if _, err := cl.Synthesize(ctx, nanoxbar.TT("2:0x6")); !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("open-circuit call: %v", err)
	}
	if got := front.calls.Load(); got != before {
		t.Fatalf("open circuit let a request through (%d → %d)", before, got)
	}

	// Cooldown elapses (1s); the half-open probe hits the now-healthy
	// server and closes the circuit.
	fc.Advance(time.Second - time.Nanosecond)
	if _, err := cl.Synthesize(ctx, nanoxbar.TT("2:0x6")); !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("call before the cooldown: %v", err)
	}
	fc.Advance(time.Nanosecond)
	if _, err := cl.Synthesize(ctx, nanoxbar.TT("2:0x6")); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	st, _ := cl.ResilienceStats()
	br := st.Breaker
	if br.State != resilience.BreakerClosed || br.Opens != 1 || br.Closes != 1 || br.Rejections != 2 {
		t.Fatalf("breaker stats = %+v", br)
	}
	// Closed again: traffic flows normally.
	if _, err := cl.Synthesize(ctx, nanoxbar.TT("2:0x6")); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
}

func TestClientNoRetryAfterEventsDelivered(t *testing.T) {
	// A stream that dies after delivering events must not be replayed:
	// the caller's handler already observed data.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		// One result event, then the connection dies without "done".
		fmt.Fprintln(w, `{"type":"result","index":0,"result":{"kind":"synthesize","synthesis":{"tech":"lattice","rows":2,"cols":2,"area":4,"method":"x"}}}`)
	}))
	t.Cleanup(ts.Close)
	fc := resilience.NewFake(time.Unix(0, 0))
	cl := client.New(ts.URL, client.WithResilience(client.ResilienceConfig{
		Retry: resilience.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Clock: fc,
	}))
	t.Cleanup(func() { cl.Close() })

	events := 0
	err := cl.Jobs(context.Background(), nanoxbar.JobsRequest{
		Requests: []nanoxbar.Request{{Kind: nanoxbar.KindSynthesize,
			Function: nanoxbar.FunctionSpec{TT: "2:0x6"}}},
	}, func(nanoxbar.Event) { events++ })
	if !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable (stream died without done)", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (committed streams must not retry)", calls.Load())
	}
	if events != 1 {
		t.Fatalf("handler saw %d events, want 1", events)
	}
}

// TestClientBreakerOpensUnderChaos: behind a transport that drops
// every connection, one call of six attempts opens the circuit on its
// fifth failure and ends typed on the open circuit, and after the
// cooldown the half-open probe is dropped and re-opens it. The soak's
// chaos mix never gets here: its 5xx bursts are 1–3 responses long and
// a success between them resets the count.
func TestClientBreakerOpensUnderChaos(t *testing.T) {
	chaos := resilience.NewChaosTransport(stubTransport{status: http.StatusOK},
		resilience.ChaosConfig{Seed: 1, DropRate: 1})
	fc := resilience.NewFake(time.Unix(0, 0))
	cl := client.New("http://xbar.invalid",
		client.WithHTTPClient(&http.Client{Transport: chaos}),
		client.WithResilience(client.ResilienceConfig{
			Retry: resilience.RetryPolicy{MaxAttempts: 6},
			Clock: fc,
		}))
	t.Cleanup(func() { cl.Close() })
	ctx := context.Background()

	// check makes one call, which must end on the open circuit, then
	// reads the transport's and the breaker's counts.
	check := func(step string, requests uint64, want resilience.BreakerStats) {
		t.Helper()
		_, err := cl.Synthesize(ctx, nanoxbar.TT("2:0x6"))
		if !errors.Is(err, nanoxbar.ErrUnavailable) || !strings.Contains(err.Error(), "circuit open") {
			t.Fatalf("%s: err = %v, want ErrUnavailable from the open circuit", step, err)
		}
		if cs := chaos.Stats(); cs.Requests != requests || cs.Drops != requests {
			t.Fatalf("%s: transport saw %d requests, %d dropped, want %d of each", step, cs.Requests, cs.Drops, requests)
		}
		if st, _ := cl.ResilienceStats(); st.Breaker != want {
			t.Fatalf("%s: breaker stats = %+v, want %+v", step, st.Breaker, want)
		}
	}
	// Backoff sleeps of 50, 100, 200 and 400 ms separate the five
	// drops; the 800 ms sleep after the fifth ends inside the cooldown.
	check("first call", 5, resilience.BreakerStats{State: resilience.BreakerOpen, Opens: 1, Rejections: 1})
	fc.Advance(time.Second)
	check("after the cooldown", 6, resilience.BreakerStats{State: resilience.BreakerOpen, Opens: 2, HalfOpens: 1, Rejections: 2})
}

func TestClientWithoutResilienceUnchanged(t *testing.T) {
	front := &flakyFront{failFor: 1}
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 8})
	t.Cleanup(eng.Close)
	front.backend = httpapi.New(eng)
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	t.Cleanup(func() { cl.Close() })

	if _, err := cl.Synthesize(context.Background(), nanoxbar.TT("2:0x6")); !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("err = %v, want one typed ErrUnavailable (no retry)", err)
	}
	if got := front.calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
	if _, ok := cl.ResilienceStats(); ok {
		t.Fatal("ResilienceStats reported enabled on a plain client")
	}
}
