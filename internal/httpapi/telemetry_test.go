package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
)

// TestMetricsEndpoint drives traffic through the API and asserts that
// GET /metrics serves a parseable Prometheus exposition covering the
// request, stage, cache, fault, HTTP, and runtime families.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)

	// Two synthesize calls of the same function (miss then hit), one
	// per-chip map: populates request histograms, cache counters, and
	// the fault path.
	for i := 0; i < 2; i++ {
		if res := submit(t, ts.URL, engine.Request{
			Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"},
		}); !res.Ok() {
			t.Fatalf("synthesize: %s", res.Error)
		}
	}
	if res := submit(t, ts.URL, engine.Request{
		Kind: engine.KindMap, Function: engine.FunctionSpec{Name: "maj3"},
		Seed: 7, Density: 0.03,
	}); !res.Ok() {
		t.Fatalf("map: %s", res.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("content type %q, want %q", ct, metricsContentType)
	}
	exp, err := telemetry.ParseExposition(mresp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}

	// Request latency histograms by kind.
	for kind, wantCount := range map[string]uint64{"synthesize": 2, "map": 1} {
		h, ok := exp.Histogram("nanoxbar_request_duration_seconds", map[string]string{"kind": kind})
		if !ok {
			t.Fatalf("no request duration histogram for kind %q", kind)
		}
		if h.Count != wantCount {
			t.Errorf("request_duration{kind=%q} count = %d, want %d", kind, h.Count, wantCount)
		}
	}
	// Stage histograms: one cold synthesis, one cache hit (the second
	// synthesize; the map resolves through the same key), one die map.
	for stage, min := range map[string]uint64{"synthesize": 1, "cache_lookup": 1, "die_map": 1, "queue_wait": 3} {
		h, ok := exp.Histogram("nanoxbar_stage_duration_seconds", map[string]string{"stage": stage})
		if !ok {
			t.Fatalf("no stage histogram for %q", stage)
		}
		if h.Count < min {
			t.Errorf("stage_duration{stage=%q} count = %d, want >= %d", stage, h.Count, min)
		}
	}
	// Counter families mirrored from engine atomics and cache shards.
	sumFamily := func(name string) (total float64) {
		for _, s := range exp.Samples {
			if s.Name == name {
				total += s.Value
			}
		}
		return total
	}
	if v := sumFamily("nanoxbar_cache_hits_total"); v < 2 {
		t.Errorf("cache hits = %v, want >= 2", v)
	}
	if v := sumFamily("nanoxbar_cache_misses_total"); v < 1 {
		t.Errorf("cache misses = %v, want >= 1", v)
	}
	if v, ok := exp.Value("nanoxbar_dies_mapped_total", nil); !ok || v != 1 {
		t.Errorf("dies mapped = %v (found %v), want 1", v, ok)
	}
	if v, ok := exp.Value("nanoxbar_requests_total", map[string]string{"kind": "synthesize"}); !ok || v != 2 {
		t.Errorf("requests_total{synthesize} = %v (found %v), want 2", v, ok)
	}
	// HTTP-layer families: route-labeled latency and status counters.
	if h, ok := exp.Histogram("nanoxbar_http_request_duration_seconds", map[string]string{"path": "/v2/jobs"}); !ok || h.Count != 3 {
		t.Errorf("HTTP duration histogram for /v2/jobs: %+v (found %v), want count 3", h, ok)
	}
	if v, ok := exp.Value("nanoxbar_http_requests_total", map[string]string{"path": "/v2/jobs", "status": "200"}); !ok || v != 3 {
		t.Errorf("http_requests_total{/v2/jobs,200} = %v (found %v), want 3", v, ok)
	}
	// Runtime + server identity families.
	if v, ok := exp.Value("go_goroutines", nil); !ok || v < 1 {
		t.Errorf("go_goroutines = %v (found %v), want >= 1", v, ok)
	}
	if v, ok := exp.Value("nanoxbar_uptime_seconds", nil); !ok || v < 0 {
		t.Errorf("uptime = %v (found %v)", v, ok)
	}
	found := false
	for _, s := range exp.Samples {
		if s.Name == "nanoxbar_build_info" {
			found = true
			if s.Value != 1 || s.Labels["go_version"] == "" {
				t.Errorf("build_info sample %+v", s)
			}
		}
	}
	if !found {
		t.Error("no nanoxbar_build_info sample")
	}
}

// TestReadOnlyEndpointsRejectNonGET: /healthz, /stats, and /metrics
// answer non-GET methods with a structured 405.
func TestReadOnlyEndpointsRejectNonGET(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var er nanoxbar.ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if err != nil || er.Error.Code != apierr.CodeBadSpec || er.Error.Message == "" {
				t.Errorf("%s %s: error body %+v (err %v)", method, path, er, err)
			}
		}
	}
}

// TestHealthzUptimeAndBuild: the health probe identifies the process.
func TestHealthzUptimeAndBuild(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.UptimeSeconds < 0 {
		t.Fatalf("uptime_seconds = %v, want >= 0", body.UptimeSeconds)
	}
	if body.Build.GoVersion == "" {
		t.Fatalf("build info missing go_version: %+v", body.Build)
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newLoggedServer builds a server whose access logs AND engine request
// logs land in the returned buffer, at debug level.
func newLoggedServer(t *testing.T) (*httptest.Server, *syncBuffer) {
	t.Helper()
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64, Logger: logger})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng, WithLogger(logger)))
	t.Cleanup(ts.Close)
	return ts, buf
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed on
// the response and lands in both the HTTP access log and the engine's
// per-request log; absent (or invalid) IDs are replaced by minted ones.
func TestRequestIDPropagation(t *testing.T) {
	ts, logs := newLoggedServer(t)
	const id = "conformance-trace-0042"

	const job = `{"requests":[{"kind":"synthesize","function":{"name":"maj3"}}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Fatalf("echoed request ID %q, want %q", got, id)
	}
	logged := logs.String()
	if n := strings.Count(logged, id); n < 2 {
		// Once in the access log, once in the engine's debug line.
		t.Fatalf("request ID appears %d times in logs, want >= 2:\n%s", n, logged)
	}

	// No header → a 16-hex-char ID is minted and echoed.
	resp2, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	minted := resp2.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted request ID %q, want 16 hex chars", minted)
	}

	// An invalid header (embedded space) is discarded, not echoed.
	req3, err := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req3.Header.Set("X-Request-ID", "has spaces in it")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got == "has spaces in it" || got == "" {
		t.Fatalf("invalid ID handling: echoed %q, want a minted replacement", got)
	}
}

// TestV2StreamFramesCarryRequestID: every NDJSON frame of a /v2/jobs
// stream carries the request ID, including per-die and done events.
func TestV2StreamFramesCarryRequestID(t *testing.T) {
	ts := newTestServer(t)
	const id = "stream-trace-7"

	payload := `{"stream_dies":true,"requests":[{"kind":"yield","function":{"name":"maj3"},"chips":3,"seed":1,"density":0.02}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Fatalf("echoed request ID %q, want %q", got, id)
	}
	dec := json.NewDecoder(resp.Body)
	frames := 0
	for dec.More() {
		var ev nanoxbar.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		frames++
		if ev.RequestID != id {
			t.Fatalf("frame %d (%s) request_id %q, want %q", frames, ev.Type, ev.RequestID, id)
		}
	}
	if frames < 5 { // 3 die + 1 result + 1 done
		t.Fatalf("saw %d frames, want >= 5", frames)
	}
}

// TestMetricsRoundTripThroughParser: the full exposition re-renders
// consistently — every histogram family is internally cumulative and
// every TYPE line is unique (ParseExposition enforces both).
func TestMetricsRoundTripThroughParser(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 16})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	// A little traffic so histograms are non-empty.
	if res := eng.DoCtx(context.Background(), engine.Request{Kind: engine.KindYield, Function: engine.FunctionSpec{Name: "maj3"}, Chips: 2, Seed: 3, Density: 0.02}); !res.Ok() {
		t.Fatalf("yield failed: %v", res.Error)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for name, typ := range exp.Types {
		if typ != "histogram" {
			continue
		}
		h, ok := exp.Histogram(name, histogramLabelsFor(exp, name))
		if !ok {
			continue
		}
		if h.Inf != h.Count {
			t.Errorf("%s: +Inf bucket %d != count %d", name, h.Inf, h.Count)
		}
	}
}

// histogramLabelsFor finds the non-le labels of the first bucket sample
// of family name, so the round-trip test can reconstruct one series per
// family without hardcoding the label schema.
func histogramLabelsFor(exp *telemetry.Exposition, name string) map[string]string {
	for _, s := range exp.Samples {
		if s.Name != name+"_bucket" {
			continue
		}
		labels := make(map[string]string, len(s.Labels))
		for k, v := range s.Labels {
			if k != "le" {
				labels[k] = v
			}
		}
		return labels
	}
	return nil
}
