// Conformance suite: the same scenarios run against both
// implementations of nanoxbar.API — the in-process Client and the HTTP
// client talking to an httptest server over the v2 NDJSON endpoints.
// This is the acceptance contract of the public SDK: local and remote
// callers are interchangeable, including streaming, mid-sweep
// cancellation, and the error taxonomy surviving the HTTP round-trip.
package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// impls builds one fresh instance of each API implementation. Each
// test scenario gets its own engines, so cache-hit assertions are
// deterministic.
func impls(t *testing.T) map[string]nanoxbar.API {
	t.Helper()
	local := nanoxbar.NewClient(nanoxbar.ClientConfig{Workers: 4})
	t.Cleanup(func() { local.Close() })

	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(httpapi.New(eng))
	t.Cleanup(ts.Close)
	remote := client.New(ts.URL)
	t.Cleanup(func() { remote.Close() })

	return map[string]nanoxbar.API{"inprocess": local, "http": remote}
}

// forEachImpl runs the scenario against both implementations.
func forEachImpl(t *testing.T, scenario func(t *testing.T, api nanoxbar.API)) {
	for name, api := range impls(t) {
		t.Run(name, func(t *testing.T) { scenario(t, api) })
	}
}

func TestConformanceSynthesize(t *testing.T) {
	forEachImpl(t, func(t *testing.T, api nanoxbar.API) {
		ctx := context.Background()
		syn, err := api.Synthesize(ctx, nanoxbar.Expr("x1x2 + x1'x2'"))
		if err != nil {
			t.Fatal(err)
		}
		if syn.Area == 0 || syn.Tech != "4T-lattice" || syn.Key == "" {
			t.Fatalf("bad synthesis %+v", syn)
		}
		if syn.CacheHit {
			t.Fatal("first synthesis reported a cache hit")
		}
		// The engine canonicalizes by truth table: an equivalent
		// expression must hit the same cache entry.
		again, err := api.Synthesize(ctx, nanoxbar.Expr("x1'x2' + x1x2"))
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.Key != syn.Key {
			t.Fatalf("equivalent function missed the cache: %+v vs %+v", again, syn)
		}
		// Technology selection.
		dio, err := api.Synthesize(ctx, nanoxbar.Func("maj3"), nanoxbar.WithTech("diode"))
		if err != nil {
			t.Fatal(err)
		}
		if dio.Tech != "diode" {
			t.Fatalf("tech %q, want diode", dio.Tech)
		}
	})
}

func TestConformanceCompare(t *testing.T) {
	forEachImpl(t, func(t *testing.T, api nanoxbar.API) {
		cmp, err := api.Compare(context.Background(), nanoxbar.Func("maj3"))
		if err != nil {
			t.Fatal(err)
		}
		if cmp.Diode.Area == 0 || cmp.FET.Area == 0 || cmp.Lattice.Area == 0 {
			t.Fatalf("incomplete comparison %+v", cmp)
		}
	})
}

func TestConformanceMap(t *testing.T) {
	forEachImpl(t, func(t *testing.T, api nanoxbar.API) {
		ctx := context.Background()
		opts := []nanoxbar.Option{nanoxbar.WithDensity(0.05), nanoxbar.WithSeed(42), nanoxbar.WithScheme("greedy")}
		mo, err := api.Map(ctx, nanoxbar.Func("maj3"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if mo.ChipSize == 0 || mo.Configs == 0 {
			t.Fatalf("bad map outcome %+v", mo)
		}
		// Determinism: the same seed reproduces the same outcome.
		mo2, err := api.Map(ctx, nanoxbar.Func("maj3"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(mo)
		b, _ := json.Marshal(mo2)
		if string(a) != string(b) {
			t.Fatalf("same seed, different outcomes:\n%s\n%s", a, b)
		}
	})
}

func TestConformanceYieldStreaming(t *testing.T) {
	forEachImpl(t, func(t *testing.T, api nanoxbar.API) {
		const chips = 25
		var mu sync.Mutex
		seen := make(map[int]bool)
		ys, err := api.YieldSweep(context.Background(), nanoxbar.Func("maj3"),
			nanoxbar.WithChips(chips), nanoxbar.WithDensity(0.04), nanoxbar.WithSeed(7),
			nanoxbar.OnDie(func(d nanoxbar.Die) {
				mu.Lock()
				defer mu.Unlock()
				if d.Err != nil || d.Map == nil {
					t.Errorf("die %d: err=%v map=%v", d.Index, d.Err, d.Map)
				}
				if seen[d.Index] {
					t.Errorf("die %d streamed twice", d.Index)
				}
				seen[d.Index] = true
			}))
		if err != nil {
			t.Fatal(err)
		}
		if ys.Chips != chips || ys.SuccessRate < 0 || ys.SuccessRate > 1 {
			t.Fatalf("bad yield stats %+v", ys)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != chips {
			t.Fatalf("streamed %d dies, want %d", len(seen), chips)
		}
	})
}

// TestConformanceErrorTaxonomy: typed errors behave identically
// in-process and across the HTTP boundary — the acceptance criterion's
// errors.Is(err, nanoxbar.ErrInfeasible) holds client-side.
func TestConformanceErrorTaxonomy(t *testing.T) {
	tiny := nanoxbar.DefectMapSpec{Rows: []string{"..", ".."}}
	cases := []struct {
		name     string
		call     func(ctx context.Context, api nanoxbar.API) error
		sentinel error
	}{
		{"bad spec", func(ctx context.Context, api nanoxbar.API) error {
			_, err := api.Synthesize(ctx, nanoxbar.Func("no-such-benchmark"))
			return err
		}, nanoxbar.ErrBadSpec},
		{"bad expression", func(ctx context.Context, api nanoxbar.API) error {
			_, err := api.Synthesize(ctx, nanoxbar.Expr("x1 +* x2"))
			return err
		}, nanoxbar.ErrBadSpec},
		{"bad tech", func(ctx context.Context, api nanoxbar.API) error {
			_, err := api.Synthesize(ctx, nanoxbar.Func("maj3"), nanoxbar.WithTech("cmos"))
			return err
		}, nanoxbar.ErrBadSpec},
		{"infeasible chip", func(ctx context.Context, api nanoxbar.API) error {
			_, err := api.Map(ctx, nanoxbar.Func("maj3"), nanoxbar.WithChip(tiny))
			return err
		}, nanoxbar.ErrInfeasible},
		{"canceled upfront", func(ctx context.Context, api nanoxbar.API) error {
			dead, cancel := context.WithCancel(ctx)
			cancel()
			_, err := api.Synthesize(dead, nanoxbar.Func("maj3"))
			return err
		}, nanoxbar.ErrCanceled},
	}
	forEachImpl(t, func(t *testing.T, api nanoxbar.API) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				err := tc.call(context.Background(), api)
				if err == nil {
					t.Fatal("call unexpectedly succeeded")
				}
				if !errors.Is(err, tc.sentinel) {
					t.Fatalf("error %v (%T), want errors.Is against %v", err, err, tc.sentinel)
				}
				var ae *apierr.Error
				if !errors.As(err, &ae) {
					t.Fatalf("errors.As(*apierr.Error) failed for %v", err)
				}
				if code := apierr.CodeOf(ae.Sentinel); code != nanoxbar.ErrorCode(tc.sentinel) {
					t.Fatalf("code %q, want %q", code, nanoxbar.ErrorCode(tc.sentinel))
				}
			})
		}
	})
}

// TestConformanceMidSweepCancellation: canceling from inside the OnDie
// stream stops the sweep early with ErrCanceled on both transports.
func TestConformanceMidSweepCancellation(t *testing.T) {
	forEachImpl(t, func(t *testing.T, api nanoxbar.API) {
		// The sweep must be big enough that the server cannot finish it
		// before the client observes die 3 and cancels — the bit-parallel
		// fault path maps small dies in a few microseconds, so this uses
		// many large dies.
		const chips = 50000
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		dies := 0
		_, err := api.YieldSweep(ctx, nanoxbar.Func("maj3"),
			nanoxbar.WithChips(chips), nanoxbar.WithDensity(0.05), nanoxbar.WithSeed(3),
			nanoxbar.WithChipSize(64),
			nanoxbar.OnDie(func(d nanoxbar.Die) {
				mu.Lock()
				dies++
				n := dies
				mu.Unlock()
				if n == 3 {
					cancel()
				}
			}))
		if err == nil {
			t.Fatal("canceled sweep succeeded")
		}
		if !errors.Is(err, nanoxbar.ErrCanceled) {
			t.Fatalf("error %v, want ErrCanceled", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if dies >= chips {
			t.Fatalf("observed all %d dies despite cancellation", dies)
		}
	})
}

// lockedBuf is a goroutine-safe log sink for the request-ID scenario.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestConformanceRequestID: a request ID placed in the context is
// observable on both transports — it appears in the engine's debug log
// either way, and the HTTP transport additionally forwards it as the
// X-Request-ID header so it lands in the server's access log and on
// every v2 stream frame.
func TestConformanceRequestID(t *testing.T) {
	const reqID = "conformance-req-7f3a"

	logged := map[string]*lockedBuf{"inprocess": {}, "http": {}}
	logger := func(name string) *slog.Logger {
		return slog.New(slog.NewJSONHandler(logged[name], &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	local := nanoxbar.NewClient(nanoxbar.ClientConfig{Workers: 4, Logger: logger("inprocess")})
	t.Cleanup(func() { local.Close() })

	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64, Logger: logger("http")})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(httpapi.New(eng, httpapi.WithLogger(logger("http"))))
	t.Cleanup(ts.Close)
	remote := client.New(ts.URL)
	t.Cleanup(func() { remote.Close() })

	for name, api := range map[string]nanoxbar.API{"inprocess": local, "http": remote} {
		t.Run(name, func(t *testing.T) {
			ctx := nanoxbar.ContextWithRequestID(context.Background(), reqID)
			if got := nanoxbar.RequestIDFromContext(ctx); got != reqID {
				t.Fatalf("context round-trip: %q", got)
			}
			if _, err := api.Map(ctx, nanoxbar.Func("maj3"),
				nanoxbar.WithSeed(11), nanoxbar.WithDensity(0.02)); err != nil {
				t.Fatal(err)
			}
			if out := logged[name].String(); !strings.Contains(out, reqID) {
				t.Fatalf("%s logs do not contain the request ID:\n%s", name, out)
			}
		})
	}

	// The HTTP transport's stream frames carry the ID end to end: drive
	// the raw Jobs API and inspect the events the client hands back.
	ctx := nanoxbar.ContextWithRequestID(context.Background(), reqID)
	frames := 0
	err := remote.Jobs(ctx, nanoxbar.JobsRequest{
		Requests: []nanoxbar.Request{{Kind: nanoxbar.KindSynthesize,
			Function: nanoxbar.Func("maj3")}},
	}, func(ev nanoxbar.Event) {
		frames++
		if ev.RequestID != reqID {
			t.Fatalf("frame %d request_id %q, want %q", frames, ev.RequestID, reqID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("no frames observed")
	}
}
