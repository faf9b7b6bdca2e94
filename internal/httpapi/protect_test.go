package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
)

// protectedServer builds a server with a tiny concurrency limit and a
// handle on the Server for drain control.
func protectedServer(t *testing.T, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	srv := New(eng, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// slowSweep is a yield body big enough to hold a worker for the whole
// test: 100k dies on oversized chips. Holders run it under a
// cancellable context so tests can release the slot deterministically.
const slowSweep = `{"kind":"yield","function":{"name":"maj5"},"chips":100000,"chip_size":48,"density":0.4,"seed":1}`

// startHolder posts slowSweep on its own context and returns a stop
// function that cancels it and waits for the connection to unwind.
func startHolder(t *testing.T, url string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/map",
				strings.NewReader(slowSweep))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // canceled mid-flight: the slot was held until now
			}
			shed := resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusServiceUnavailable
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if !shed {
				return
			}
			// A concurrent probe owned the slot (or queue) when this
			// request arrived and it was shed; try again until it sticks.
			time.Sleep(time.Millisecond)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
}

func TestShedReturns429WithRetryAfter(t *testing.T) {
	ts, _ := protectedServer(t, WithLimits(1, 0))
	stop := startHolder(t, ts.URL)
	defer stop()

	// Poll until the holder owns the slot and our probe sheds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("never observed a 429")
		}
		resp, body := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{
			"kind": "synthesize", "function": map[string]string{"tt": "2:0x6"},
		})
		if resp.StatusCode == http.StatusOK {
			time.Sleep(time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatal("429 without Retry-After")
		}
		var ae apiError
		if err := json.Unmarshal(body, &ae); err != nil || ae.Code != apierr.CodeOverloaded {
			t.Fatalf("shed body = %s (err %v), want code %q", body, err, apierr.CodeOverloaded)
		}
		break
	}
	stop()

	// With the holder gone the slot frees as soon as its handler
	// unwinds; poll until requests flow again.
	waitFor(t, "post-shed recovery", func() bool {
		resp, _ := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{
			"kind": "synthesize", "function": map[string]string{"tt": "2:0x6"},
		})
		return resp.StatusCode == http.StatusOK
	})
}

func TestDrainRejectsWorkKeepsOps(t *testing.T) {
	ts, srv := protectedServer(t)
	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	resp, body := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{
		"kind": "synthesize", "function": map[string]string{"tt": "2:0x6"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining work route status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil || ae.Code != apierr.CodeUnavailable {
		t.Fatalf("drain body = %s, want code %q", body, apierr.CodeUnavailable)
	}

	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while draining: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while draining = %d, want 200", path, r.StatusCode)
		}
	}
}

func TestDeadlineHeaderBoundsRequest(t *testing.T) {
	ts, _ := protectedServer(t)
	// A 1ms budget cannot cover a 2000-die yield sweep whose dies all
	// demote to greedy repair (40% density): the request must come back
	// canceled (deadline exceeded server-side), not hang. Defect-free
	// dies would not do: they resolve on the lane fast path and can
	// finish inside the budget.
	body := `{"kind":"yield","function":{"name":"maj5"},"chips":2000,"chip_size":48,"density":0.4,"seed":1}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(deadlineHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var res engine.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bad body %s: %v", raw, err)
	}
	if res.Ok() {
		t.Fatal("1ms-budget sweep succeeded — deadline header ignored")
	}
	if res.Code != apierr.CodeCanceled {
		t.Fatalf("code = %q, want %q (body %s)", res.Code, apierr.CodeCanceled, raw)
	}
}

func TestPanicRecoveryReturns500WithRequestID(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 8})
	t.Cleanup(eng.Close)
	srv := New(eng)
	// Mount a panicking route through the same middleware chain.
	srv.mux.HandleFunc("/boom", srv.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("500 without X-Request-ID")
	}
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil || ae.Code != apierr.CodeInternal {
		t.Fatalf("panic body = %s, want internal code", body)
	}
	if !bytes.Contains(body, []byte(id)) {
		t.Fatalf("panic body %s does not reference request ID %s", body, id)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", srv.panics.Load())
	}
	// The server survives: a normal request still works.
	resp2, _ := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{
		"kind": "synthesize", "function": map[string]string{"tt": "2:0x6"},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d", resp2.StatusCode)
	}
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadedResultMapsTo429(t *testing.T) {
	// Engine-level shed (queue saturation) must surface as HTTP 429,
	// not the blanket 422.
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 8, QueueDepth: 1, MaxQueueWait: 50 * time.Millisecond})
	t.Cleanup(eng.Close)
	srv := New(eng)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Saturate in sequence so neither holder sheds: the first sweep
	// must own the worker before the second fills the one queue slot.
	stop1 := startHolder(t, ts.URL)
	defer stop1()
	waitFor(t, "worker pickup", func() bool { return eng.Stats().Requests >= 1 })
	stop2 := startHolder(t, ts.URL)
	defer stop2()
	waitFor(t, "queue occupancy", func() bool { return eng.Stats().QueuedJobs == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/synthesize", map[string]any{
		"kind": "synthesize", "function": map[string]string{"tt": "2:0x6"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	var res engine.Result
	if err := json.Unmarshal(body, &res); err != nil || res.Code != apierr.CodeOverloaded {
		t.Fatalf("shed result body = %s, want code %q", body, apierr.CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if eng.Stats().Shed != 1 {
		t.Fatalf("engine shed counter = %d, want 1", eng.Stats().Shed)
	}
}
