package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/pkg/nanoxbar"
)

// protectedServer builds a server and returns a handle on it for drain
// control.
func protectedServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	srv := New(eng)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

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

func TestDrainRejectsWorkKeepsOps(t *testing.T) {
	ts, srv := protectedServer(t)
	srv.Drain()
	if !srv.draining.Load() {
		t.Fatal("draining flag unset after Drain")
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

// TestDeadlineHeaderSaturates: a budget too long for a Duration caps
// at maxDeadline instead of wrapping. 9223372036855 ms wraps to a
// negative budget and 18446744073710 ms to 448 µs; either would cancel
// a sweep that takes milliseconds.
func TestDeadlineHeaderSaturates(t *testing.T) {
	ts, _ := protectedServer(t)
	body := `{"requests":[{"kind":"yield","function":{"name":"maj5"},"chips":400,"density":0.05,"seed":3}]}`
	for _, ms := range []string{"9223372036854", "9223372036855", "18446744073710", "9223372036854775807"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(deadlineHeader, ms)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		first, _, _ := bytes.Cut(raw, []byte("\n"))
		var ev nanoxbar.Event
		if err := json.Unmarshal(first, &ev); err != nil {
			t.Fatalf("%s ms: bad stream %s: %v", ms, raw, err)
		}
		if ev.Type != nanoxbar.EventResult {
			t.Fatalf("X-Deadline-Ms %s answered %q, want a result (stream %s)", ms, ev.Type, raw)
		}
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
