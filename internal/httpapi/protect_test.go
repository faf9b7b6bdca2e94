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
	"nanoxbar/pkg/nanoxbar"
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

// slowSweep is a jobs body big enough to hold a worker for the whole
// test: 100k dies on oversized chips. Holders run it under a
// cancellable context so tests can release the slot deterministically.
const slowSweep = `{"requests":[{"kind":"yield","function":{"name":"maj5"},"chips":100000,"chip_size":48,"density":0.4,"seed":1}]}`

// synthJob is a one-request job that a free server answers at once.
var synthJob = map[string]any{"requests": []map[string]any{{
	"kind": "synthesize", "function": map[string]string{"tt": "2:0x6"},
}}}

// errorBody decodes a non-200 body in the one error shape the server
// writes, failing the test unless it carries wantCode.
func errorBody(t *testing.T, body []byte, wantCode string) nanoxbar.WireError {
	t.Helper()
	var er nanoxbar.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != wantCode || er.Error.Message == "" {
		t.Fatalf("error body = %s (err %v), want {\"error\":{\"code\":%q,...}}", body, err, wantCode)
	}
	return er.Error
}

// startHolder posts slowSweep on its own context and returns a stop
// function that cancels it and waits for the connection to unwind.
func startHolder(t *testing.T, url string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/jobs",
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
		resp, body := postJSON(t, ts.URL+"/v2/jobs", synthJob)
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
		errorBody(t, body, apierr.CodeOverloaded)
		break
	}
	stop()

	// With the holder gone the slot frees as soon as its handler
	// unwinds; poll until requests flow again.
	waitFor(t, "post-shed recovery", func() bool {
		resp, _ := postJSON(t, ts.URL+"/v2/jobs", synthJob)
		return resp.StatusCode == http.StatusOK
	})
}

func TestDrainRejectsWorkKeepsOps(t *testing.T) {
	ts, srv := protectedServer(t)
	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	resp, body := postJSON(t, ts.URL+"/v2/jobs", synthJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining work route status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}
	errorBody(t, body, apierr.CodeUnavailable)

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
	body := `{"requests":[{"kind":"yield","function":{"name":"maj5"},"chips":2000,"chip_size":48,"density":0.4,"seed":1}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(body))
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
	first, _, _ := bytes.Cut(raw, []byte("\n"))
	var ev nanoxbar.Event
	if err := json.Unmarshal(first, &ev); err != nil {
		t.Fatalf("bad stream %s: %v", raw, err)
	}
	if ev.Type != nanoxbar.EventError {
		t.Fatalf("1ms-budget sweep answered %q — deadline header ignored (stream %s)", ev.Type, raw)
	}
	if ev.Error.Code != apierr.CodeCanceled {
		t.Fatalf("code = %q, want %q (stream %s)", ev.Error.Code, apierr.CodeCanceled, raw)
	}
}

// TestCanceledAdmissionReturns503: a client that gives up while waiting
// for a concurrency slot gets the structured 503 (code canceled), not
// a bare status.
func TestCanceledAdmissionReturns503(t *testing.T) {
	_, srv := protectedServer(t, WithLimits(1, time.Minute))
	if err := srv.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.limiter.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v2/jobs", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	errorBody(t, rec.Body.Bytes(), apierr.CodeCanceled)
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
	if we := errorBody(t, body, apierr.CodeInternal); !strings.Contains(we.Message, id) {
		t.Fatalf("panic message %q does not reference request ID %s", we.Message, id)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", srv.panics.Load())
	}
	// The server survives: a normal request still works.
	resp2, _ := postJSON(t, ts.URL+"/v2/jobs", synthJob)
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
