package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// saturable pairs an API implementation with a view of its engine
// stats, so overload scenarios can sequence saturation deterministically
// instead of racing the worker pool.
type saturable struct {
	api   nanoxbar.API
	stats func() nanoxbar.Stats
}

// saturableImpls builds both implementations over a tiny engine: one
// worker, so four queue slots, and a short admission budget, so a held
// worker plus a full queue sheds the next request.
func saturableImpls(t *testing.T) map[string]saturable {
	t.Helper()
	const wait = 50 * time.Millisecond

	local := nanoxbar.NewClient(nanoxbar.ClientConfig{Workers: 1, MaxQueueWait: wait})
	t.Cleanup(func() { local.Close() })

	eng := engine.New(engine.Config{Workers: 1, CacheSize: 8, MaxQueueWait: wait})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(httpapi.New(eng))
	t.Cleanup(ts.Close)
	remote := client.New(ts.URL)
	t.Cleanup(func() { remote.Close() })

	return map[string]saturable{
		"inprocess": {api: local, stats: local.Stats},
		"http":      {api: remote, stats: eng.Stats},
	}
}

// saturate holds the one worker with a long cancellable yield sweep and
// fills the four queue slots behind it with more, so the next request
// outwaits the admission budget and is shed. stop cancels every sweep
// at once and waits for them: a queued sweep ends only when a worker
// picks it up and finds its context canceled, so canceling one at a
// time would leave an uncanceled sweep running in front of it.
func saturate(t *testing.T, s saturable) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	hold := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.api.YieldSweep(ctx, nanoxbar.Func("maj5"),
				nanoxbar.WithChips(100000), nanoxbar.WithChipSize(48),
				nanoxbar.WithDensity(0.4), nanoxbar.WithSeed(1))
		}()
	}
	hold()
	waitStats(t, "worker pickup", func() bool { return s.stats().Requests >= 1 })
	for i := 0; i < 4; i++ {
		hold()
	}
	waitStats(t, "queue occupancy", func() bool { return s.stats().QueuedJobs == 4 })
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitStats polls cond until true or a 10s deadline.
func waitStats(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConformanceOverloadedTyped: both implementations shed identically
// under queue saturation — errors.Is(err, ErrOverloaded) holds and the
// wire code survives the HTTP round-trip.
func TestConformanceOverloadedTyped(t *testing.T) {
	for name, s := range saturableImpls(t) {
		t.Run(name, func(t *testing.T) {
			stop := saturate(t, s)

			_, err := s.api.Synthesize(context.Background(), nanoxbar.TT("2:0x6"))
			if !errors.Is(err, nanoxbar.ErrOverloaded) {
				t.Fatalf("saturated synthesize: %v, want ErrOverloaded", err)
			}
			if code := nanoxbar.ErrorCode(err); code != nanoxbar.CodeOverloaded {
				t.Fatalf("wire code = %q, want %q", code, nanoxbar.CodeOverloaded)
			}
			if got := s.stats().Shed; got < 1 {
				t.Fatalf("shed counter = %d, want >= 1", got)
			}

			// Release the pool: the same request now succeeds, so the
			// shed really was load, not a broken request.
			stop()
			waitStats(t, "pool drain", func() bool { return s.stats().QueuedJobs == 0 })
			if _, err := s.api.Synthesize(context.Background(), nanoxbar.TT("2:0x6")); err != nil {
				t.Fatalf("post-drain synthesize: %v", err)
			}
		})
	}
}

// TestUnavailableSurvivesRoundTrip: a draining server rejects typed; the
// HTTP client surfaces ErrUnavailable with the wire code intact.
func TestUnavailableSurvivesRoundTrip(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 8})
	t.Cleanup(eng.Close)
	srv := httpapi.New(eng)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	t.Cleanup(func() { cl.Close() })

	srv.Drain()
	_, err := cl.Synthesize(context.Background(), nanoxbar.TT("2:0x6"))
	if !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("draining synthesize: %v, want ErrUnavailable", err)
	}
	if code := nanoxbar.ErrorCode(err); code != nanoxbar.CodeUnavailable {
		t.Fatalf("wire code = %q, want %q", code, nanoxbar.CodeUnavailable)
	}
	if resilience.RetryAfter(err) <= 0 {
		t.Fatal("drain rejection carried no Retry-After hint")
	}
}

// TestTaxonomyCodeRoundTrip: the two resilience sentinels encode and
// decode symmetrically through the wire-code mapping both clients use.
func TestTaxonomyCodeRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel error
		code     string
	}{
		{nanoxbar.ErrOverloaded, nanoxbar.CodeOverloaded},
		{nanoxbar.ErrUnavailable, nanoxbar.CodeUnavailable},
	}
	for _, c := range cases {
		if got := nanoxbar.ErrorCode(c.sentinel); got != c.code {
			t.Errorf("ErrorCode(%v) = %q, want %q", c.sentinel, got, c.code)
		}
		back := nanoxbar.ErrorFromCode(c.code, "detail")
		if !errors.Is(back, c.sentinel) {
			t.Errorf("ErrorFromCode(%q) does not match its sentinel", c.code)
		}
	}
}
