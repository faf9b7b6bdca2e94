package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// submit runs one request as a /v2/jobs job and returns its result,
// rebuilt from the result or error frame so callers assert on one shape.
func submit(t *testing.T, url string, req engine.Request) engine.Result {
	t.Helper()
	code, evs := readEvents(t, url, nanoxbar.JobsRequest{Requests: []engine.Request{req}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, evs[0].Error)
	}
	for _, ev := range evs {
		switch ev.Type {
		case nanoxbar.EventResult:
			return *ev.Result
		case nanoxbar.EventError:
			return engine.Result{Kind: req.Kind, Err: ev.Error.Err()}
		}
	}
	t.Fatalf("stream carried no result: %+v", evs)
	return engine.Result{}
}

// byIndex collects a jobs stream's result and error frames by request
// index, failing the test if any index resolves twice or the done frame
// does not count n requests.
func byIndex(t *testing.T, evs []nanoxbar.Event, n int) []nanoxbar.Event {
	t.Helper()
	out := make([]nanoxbar.Event, n)
	for _, ev := range evs {
		if ev.Type != nanoxbar.EventResult && ev.Type != nanoxbar.EventError {
			continue
		}
		if out[ev.Index].Type != "" {
			t.Fatalf("request %d resolved twice", ev.Index)
		}
		out[ev.Index] = ev
	}
	if done := evs[len(evs)-1]; done.Type != nanoxbar.EventDone || done.Done.Results != n {
		t.Fatalf("last frame %+v, want done with %d results", done, n)
	}
	return out
}

// scrape parses the server's /metrics exposition.
func scrape(t *testing.T, url string) *telemetry.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return exp
}

// metric reads the unlabeled series name, failing the test when it is
// missing.
func metric(t *testing.T, exp *telemetry.Exposition, name string) float64 {
	t.Helper()
	v, ok := exp.Value(name, nil)
	if !ok {
		t.Fatalf("/metrics has no %s series", name)
	}
	return v
}

// TestHealthz: the probe holds the status, uptime and build identity
// only, and a cold server's counters read zero on /metrics.
func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || string(body["status"]) != `"ok"` {
		t.Fatalf("healthz body %s (err %v)", body, err)
	}
	if keys := slices.Sorted(maps.Keys(body)); !slices.Equal(keys, []string{"build", "status", "uptime_seconds"}) {
		t.Fatalf("healthz keys %v, want build, status and uptime_seconds", keys)
	}
	exp := scrape(t, ts.URL)
	for _, name := range []string{
		"nanoxbar_cache_entries", "nanoxbar_cache_loaded_total",
		"nanoxbar_dies_mapped_total", "nanoxbar_defect_maps_generated_total", "nanoxbar_map_attempts_total",
	} {
		if v := metric(t, exp, name); v != 0 {
			t.Errorf("cold server reports %s %v, want 0", name, v)
		}
	}
}

// TestFaultCountersReported drives map and yield requests and checks
// the fault-path counters on /metrics.
func TestFaultCountersReported(t *testing.T) {
	ts := newTestServer(t)
	if res := submit(t, ts.URL, engine.Request{
		Kind:     engine.KindMap,
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Seed:     1,
	}); !res.Ok() {
		t.Fatalf("map: %v", res.Err)
	}
	const chips = 7
	if res := submit(t, ts.URL, engine.Request{
		Kind:     engine.KindYield,
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Chips:    chips,
		Seed:     2,
	}); !res.Ok() {
		t.Fatalf("yield: %v", res.Err)
	}

	exp := scrape(t, ts.URL)
	dies := metric(t, exp, "nanoxbar_dies_mapped_total")
	if dies != 1+chips {
		t.Fatalf("dies_mapped = %v, want %d", dies, 1+chips)
	}
	if v := metric(t, exp, "nanoxbar_defect_maps_generated_total"); v != 1+chips {
		t.Fatalf("defect_maps_generated = %v, want %d", v, 1+chips)
	}
	// At least one self-mapping attempt per die: a mean of 1 or more.
	if v := metric(t, exp, "nanoxbar_map_attempts_total"); v < dies {
		t.Fatalf("map_attempts %v below dies_mapped %v", v, dies)
	}
	// Every yield die resolved either on the fast candidate schedule or
	// by scalar demotion; the KindMap die counts in neither bucket.
	fast, demoted := metric(t, exp, "nanoxbar_dies_checked_fast_total"), metric(t, exp, "nanoxbar_dies_demoted_scalar_total")
	if fast+demoted != chips {
		t.Fatalf("dies_checked_fast %v + dies_demoted_scalar %v, want sum %d", fast, demoted, chips)
	}
}

// TestMetricsReportPersistence covers the warm-restart observability:
// after seeding the engine from a snapshot, /metrics reports the entry
// count and how many entries came from the snapshot, and the loaded
// entry serves without a synthesis.
func TestMetricsReportPersistence(t *testing.T) {
	// Warm engine: synthesize, snapshot, reload into a fresh engine.
	warm := engine.New(engine.Config{Workers: 2, CacheSize: 64})
	if res := warm.DoCtx(context.Background(), engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}}); !res.Ok() {
		t.Fatalf("warmup: %v", res.Err)
	}
	var snap bytes.Buffer
	n, err := warm.WriteCacheSnapshot(&snap)
	warm.Close()
	if err != nil || n != 1 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}

	eng := engine.New(engine.Config{Workers: 2, CacheSize: 64})
	t.Cleanup(eng.Close)
	if loaded, err := eng.ReadCacheSnapshot(&snap); err != nil || loaded != 1 {
		t.Fatalf("load: loaded=%d err=%v", loaded, err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	exp := scrape(t, ts.URL)
	if entries, loaded := metric(t, exp, "nanoxbar_cache_entries"), metric(t, exp, "nanoxbar_cache_loaded_total"); entries != 1 || loaded != 1 {
		t.Fatalf("cache entries=%v loaded=%v, want 1/1", entries, loaded)
	}
	// The loaded entry must serve as a hit, with no synthesis run.
	res := submit(t, ts.URL, engine.Request{
		Kind:     engine.KindSynthesize,
		Function: engine.FunctionSpec{Name: "maj3"},
	})
	if res.Synthesis == nil || !res.Synthesis.CacheHit {
		t.Fatalf("warm-loaded function was not a cache hit: %+v", res)
	}
	if v := metric(t, scrape(t, ts.URL), "nanoxbar_synth_calls_total"); v != 0 {
		t.Fatalf("synth_calls = %v after serving the loaded entry, want 0", v)
	}
}

func TestSynthesizeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	xor := engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Expr: "x1x2 + x1'x2'"}}
	res := submit(t, ts.URL, xor)
	if res.Synthesis == nil || res.Synthesis.Area == 0 {
		t.Fatalf("bad synthesis result: %+v", res)
	}
	if res.Synthesis.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	// Same function again: must hit.
	if res = submit(t, ts.URL, xor); res.Synthesis == nil || !res.Synthesis.CacheHit {
		t.Fatalf("second request missed the cache: %+v", res)
	}
	// Compare rides the same endpoint.
	res = submit(t, ts.URL, engine.Request{
		Kind:     engine.KindCompare,
		Function: engine.FunctionSpec{Name: "maj3"},
	})
	if res.Compare == nil {
		t.Fatalf("bad compare result: %+v", res)
	}
}

func TestMapEndpointValidation(t *testing.T) {
	ts := newTestServer(t)
	// A request without a kind is a per-chip map.
	res := submit(t, ts.URL, engine.Request{
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.05,
		Seed:     1,
	})
	if res.Map == nil {
		t.Fatalf("bad map result: %+v", res)
	}
	// Engine-level failures arrive as a typed error frame.
	res = submit(t, ts.URL, engine.Request{
		Function: engine.FunctionSpec{Name: "no-such-benchmark"},
	})
	if apierr.CodeOf(res.Err) != apierr.CodeBadSpec || res.Err == nil {
		t.Fatalf("unknown benchmark: %+v, want a bad_spec error frame", res)
	}
}

// TestBatchHundredChipsOneMiss is the acceptance scenario end to end
// over HTTP: 100 per-chip mapping requests for one function, exactly
// one underlying synthesis, deterministic results for fixed seeds.
func TestBatchHundredChipsOneMiss(t *testing.T) {
	ts := newTestServer(t)
	var batch nanoxbar.JobsRequest
	for i := 0; i < 100; i++ {
		batch.Requests = append(batch.Requests, engine.Request{
			Kind:     engine.KindMap,
			Function: engine.FunctionSpec{Name: "maj3"},
			Density:  0.05,
			Seed:     int64(i),
		})
	}
	code, evs := readEvents(t, ts.URL, batch)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	out := byIndex(t, evs, 100)
	for i, ev := range out {
		if ev.Type != nanoxbar.EventResult || ev.Result.Map == nil {
			t.Fatalf("request %d has no map result: %+v", i, ev)
		}
	}

	// /metrics must report exactly one synthesis and 99 cache hits.
	exp := scrape(t, ts.URL)
	synth, miss, hit := metric(t, exp, "nanoxbar_synth_calls_total"),
		metric(t, exp, "nanoxbar_cache_misses_total"), metric(t, exp, "nanoxbar_cache_hits_total")
	if synth != 1 || miss != 1 || hit != 99 {
		t.Fatalf("synth=%v miss=%v hit=%v, want 1/1/99", synth, miss, hit)
	}
	if buildLabels(t, exp)["fingerprint"] == "" {
		t.Fatal("build info missing implementation fingerprint")
	}

	// Determinism: a fresh server given the same batch returns the
	// same results.
	ts2 := newTestServer(t)
	_, evs2 := readEvents(t, ts2.URL, batch)
	out2 := byIndex(t, evs2, 100)
	for i := range out {
		a, _ := json.Marshal(out[i].Result)
		b, _ := json.Marshal(out2[i].Result)
		if !bytes.Equal(a, b) {
			t.Fatalf("result %d differs across servers:\n%s\n%s", i, a, b)
		}
	}
}

// TestPprofOptIn checks /debug/pprof/ is mounted only behind the
// -pprof flag, and that /metrics carries the lattice evaluation
// counters.
func TestPprofOptIn(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: status %d, want 404", resp.StatusCode)
	}

	eng := engine.New(engine.Config{Workers: 2, CacheSize: 8})
	t.Cleanup(eng.Close)
	tsp := httptest.NewServer(New(eng, WithPprof()))
	t.Cleanup(tsp.Close)
	resp, err = http.Get(tsp.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}

	// A lattice synthesis must move the process-wide evaluation
	// counters surfaced in /metrics. The counters are cumulative across
	// the whole test binary, so assert on the delta around this
	// request, not on being nonzero.
	before := scrape(t, tsp.URL)
	submit(t, tsp.URL, engine.Request{
		Kind:     engine.KindSynthesize,
		Function: engine.FunctionSpec{Expr: "x1x2 + x2x3 + x1x3"},
	})
	after := scrape(t, tsp.URL)
	for _, name := range []string{"nanoxbar_lattice_fast_implements_total", "nanoxbar_lattice_word_blocks_total"} {
		if v0, v1 := metric(t, before, name), metric(t, after, name); v1 <= v0 {
			t.Fatalf("%s did not advance: before %v after %v", name, v0, v1)
		}
	}
}

func TestBatchMixedKindsAndDefaulting(t *testing.T) {
	ts := newTestServer(t)
	code, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{Requests: []engine.Request{
		{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}},
		{Function: engine.FunctionSpec{Name: "maj3"}, Density: 0.05, Seed: 3}, // kind defaults to map
		{Kind: engine.KindYield, Function: engine.FunctionSpec{Name: "maj3"}, Density: 0.03, Chips: 10, ChipSize: 16, Seed: 4},
		{Kind: engine.KindMap, Function: engine.FunctionSpec{Name: "not-a-benchmark"}},
	}})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if errs := evs[len(evs)-1].Done.Errors; errs != 1 {
		t.Fatalf("done.errors=%d, want 1", errs)
	}
	out := byIndex(t, evs, 4)
	if out[0].Result == nil || out[0].Result.Synthesis == nil ||
		out[1].Result == nil || out[1].Result.Map == nil ||
		out[2].Result == nil || out[2].Result.Yield == nil {
		t.Fatalf("payloads do not match their requests: %+v", out)
	}
	if out[3].Type != nanoxbar.EventError || out[3].Error.Message == "" {
		t.Fatalf("failed request lost its error: %+v", out[3])
	}
	if out[2].Result.Yield.Chips != 10 {
		t.Fatalf("yield chips %v, want 10", out[2].Result.Yield.Chips)
	}
}
