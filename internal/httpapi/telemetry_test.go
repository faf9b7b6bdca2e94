package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/core"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/telemetry"
	"nanoxbar/internal/yield"
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
			t.Fatalf("synthesize: %v", res.Err)
		}
	}
	if res := submit(t, ts.URL, engine.Request{
		Kind: engine.KindMap, Function: engine.FunctionSpec{Name: "maj3"},
		Seed: 7, Density: 0.03,
	}); !res.Ok() {
		t.Fatalf("map: %v", res.Err)
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

// TestReadOnlyEndpointsRejectNonGET: /healthz and /metrics answer
// non-GET methods with a structured 405.
func TestReadOnlyEndpointsRejectNonGET(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/metrics"} {
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
	if body.Build.Fingerprint != core.Fingerprint() || body.Build.FaultVersion != yield.FaultVersion {
		t.Fatalf("build info %+v, want fingerprint %q and fault_version %d",
			body.Build, core.Fingerprint(), yield.FaultVersion)
	}
}

// buildLabels returns the labels of the nanoxbar_build_info series.
func buildLabels(t *testing.T, exp *telemetry.Exposition) map[string]string {
	t.Helper()
	for _, s := range exp.Samples {
		if s.Name == "nanoxbar_build_info" {
			return s.Labels
		}
	}
	t.Fatal("no nanoxbar_build_info series")
	return nil
}

// TestMetricsCarryEngineStats: /metrics is the one wire surface of the
// engine's counters. After a synthesize miss and hit, a compare, a map,
// a streamed yield, a shed and a snapshot load, every engine.Stats
// field but Requests reads the same on /metrics, and GET /stats is
// gone.
func TestMetricsCarryEngineStats(t *testing.T) {
	ctx := context.Background()
	maj3 := engine.FunctionSpec{Name: "maj3"}
	warm := engine.New(engine.Config{Workers: 1, CacheSize: 8})
	if res := warm.DoCtx(ctx, engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "xor4"}}); !res.Ok() {
		t.Fatalf("warmup: %v", res.Err)
	}
	var snap bytes.Buffer
	_, err := warm.WriteCacheSnapshot(&snap)
	warm.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Two entries, so the compare's three technologies evict.
	eng := engine.New(engine.Config{Workers: 1, CacheSize: 2, MaxQueueWait: 20 * time.Millisecond})
	t.Cleanup(eng.Close)
	if n, err := eng.ReadCacheSnapshot(&snap); err != nil || n != 1 {
		t.Fatalf("load: %d entries, err %v", n, err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	for _, req := range []engine.Request{
		{Kind: engine.KindSynthesize, Function: maj3},
		{Kind: engine.KindSynthesize, Function: maj3},
		{Kind: engine.KindCompare, Function: maj3},
		{Kind: engine.KindMap, Function: maj3, Density: 0.05, Seed: 1},
	} {
		if res := submit(t, ts.URL, req); !res.Ok() {
			t.Fatalf("%s: %v", req.Kind, res.Err)
		}
	}
	const chips = 5
	_, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{StreamDies: true, Requests: []engine.Request{
		{Kind: engine.KindYield, Function: maj3, Density: 0.05, Chips: chips, Seed: 2},
	}})
	if dies := len(evs) - 2; dies != chips || evs[chips].Type != nanoxbar.EventResult {
		t.Fatalf("streamed yield: %d frames, want %d dies, a result and done", len(evs), chips)
	}

	// One sweep holds the run slot and four more fill the queue, so the
	// next request outwaits MaxQueueWait and is shed. The holders run
	// in process, so once they return the engine is idle.
	hold, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	sweep := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.DoCtx(hold, engine.Request{Kind: engine.KindYield, Function: engine.FunctionSpec{Name: "maj5"},
				Chips: 100000, ChipSize: 48, Density: 0.4, Seed: 1})
		}()
	}
	started := eng.Stats().Requests
	sweep()
	waitFor(t, "the run slot", func() bool { return eng.Stats().Requests > started })
	for i := 0; i < 4; i++ {
		sweep()
	}
	waitFor(t, "a full queue", func() bool { return eng.Stats().QueuedJobs == 4 })
	res := submit(t, ts.URL, engine.Request{Kind: engine.KindSynthesize, Function: maj3})
	cancel()
	wg.Wait()
	if apierr.CodeOf(res.Err) != apierr.CodeOverloaded {
		t.Fatalf("saturated request: %v, want overloaded", res.Err)
	}

	// The lattice counters are process-wide: read the scrape between
	// two equal snapshots.
	var st engine.Stats
	var exp *telemetry.Exposition
	for i := 0; ; i++ {
		st = eng.Stats()
		exp = scrape(t, ts.URL)
		if eng.Stats() == st {
			break
		}
		if i == 100 {
			t.Fatal("engine counters did not settle")
		}
	}
	v := func(name string) float64 { return metric(t, exp, name) }
	kind := func(k engine.Kind) uint64 {
		n, ok := exp.Value("nanoxbar_requests_total", map[string]string{"kind": string(k)})
		if !ok {
			t.Fatalf("no nanoxbar_requests_total{kind=%q} series", k)
		}
		return uint64(n)
	}
	build := buildLabels(t, exp)
	faultVersion, _ := strconv.Atoi(build["fault_version"])
	got := engine.Stats{
		Workers:             int(v("nanoxbar_workers")),
		CacheCapacity:       int(v("nanoxbar_cache_capacity")),
		CacheEntries:        int(v("nanoxbar_cache_entries")),
		CacheHits:           uint64(v("nanoxbar_cache_hits_total")),
		CacheMisses:         uint64(v("nanoxbar_cache_misses_total")),
		CacheEvictions:      uint64(v("nanoxbar_cache_evictions_total")),
		CacheLoaded:         uint64(v("nanoxbar_cache_loaded_total")),
		SynthCalls:          uint64(v("nanoxbar_synth_calls_total")),
		Requests:            st.Requests, // counts refusals too; no series
		Failures:            uint64(v("nanoxbar_request_failures_total")),
		Shed:                uint64(v("nanoxbar_engine_shed_total")),
		Degraded:            uint64(v("nanoxbar_engine_degraded_total")),
		QueueDepth:          int(v("nanoxbar_engine_queue_depth")),
		QueuedJobs:          int(v("nanoxbar_engine_queued_jobs")),
		Synthesizes:         kind(engine.KindSynthesize),
		Compares:            kind(engine.KindCompare),
		Maps:                kind(engine.KindMap),
		Yields:              kind(engine.KindYield),
		DiesMapped:          uint64(v("nanoxbar_dies_mapped_total")),
		DefectMapsGenerated: uint64(v("nanoxbar_defect_maps_generated_total")),
		MapAttempts:         uint64(v("nanoxbar_map_attempts_total")),
		MeanMapAttempts:     v("nanoxbar_map_attempts_total") / v("nanoxbar_dies_mapped_total"),
		DiesCheckedFast:     uint64(v("nanoxbar_dies_checked_fast_total")),
		DiesDemotedScalar:   uint64(v("nanoxbar_dies_demoted_scalar_total")),
		Evaluation: lattice.Counters{
			FastImplements: uint64(v("nanoxbar_lattice_fast_implements_total")),
			WordBlocks:     uint64(v("nanoxbar_lattice_word_blocks_total")),
		},
		Fingerprint:  build["fingerprint"],
		FaultVersion: faultVersion,
	}
	if got != st {
		t.Fatalf("/metrics reads\n%+v\nengine.Stats reads\n%+v", got, st)
	}
	if st.CacheEvictions == 0 || st.CacheLoaded == 0 || st.Shed == 0 || st.DiesCheckedFast+st.DiesDemotedScalar < chips {
		t.Fatalf("the workload left counters at zero: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats: status %d, want 404", resp.StatusCode)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
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
	req3, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
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
		t.Fatalf("yield failed: %v", res.Err)
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
