package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
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
			return engine.Result{Kind: req.Kind, Error: ev.Error.Message, Code: ev.Error.Code}
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
	var body healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Status != "ok" {
		t.Fatalf("healthz body %+v (err %v)", body, err)
	}
	if body.Cache.Shards < 1 {
		t.Fatalf("healthz cache.shards = %d, want >= 1", body.Cache.Shards)
	}
	if body.Cache.Entries != 0 || body.Cache.LoadedFromSnapshot != 0 {
		t.Fatalf("cold server reports cache %+v, want empty", body.Cache)
	}
	if body.Fault.DiesMapped != 0 || body.Fault.DefectMapsGenerated != 0 || body.Fault.MeanMapAttempts != 0 {
		t.Fatalf("cold server reports fault work %+v, want zeros", body.Fault)
	}
}

// TestFaultCountersReported drives map and yield requests and checks
// the fault-path counters surface consistently on /healthz and /stats.
func TestFaultCountersReported(t *testing.T) {
	ts := newTestServer(t)
	if res := submit(t, ts.URL, engine.Request{
		Kind:     engine.KindMap,
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Seed:     1,
	}); !res.Ok() {
		t.Fatalf("map: %s", res.Error)
	}
	const chips = 7
	if res := submit(t, ts.URL, engine.Request{
		Kind:     engine.KindYield,
		Function: engine.FunctionSpec{Name: "maj3"},
		Density:  0.02,
		Chips:    chips,
		Seed:     2,
	}); !res.Ok() {
		t.Fatalf("yield: %s", res.Error)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health healthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1 + chips); health.Fault.DiesMapped != want {
		t.Fatalf("healthz dies_mapped = %d, want %d", health.Fault.DiesMapped, want)
	}
	if health.Fault.DefectMapsGenerated != uint64(1+chips) {
		t.Fatalf("healthz defect_maps_generated = %d, want %d", health.Fault.DefectMapsGenerated, 1+chips)
	}
	if health.Fault.MeanMapAttempts < 1 {
		t.Fatalf("healthz mean_map_attempts = %v, want >= 1", health.Fault.MeanMapAttempts)
	}
	// Every yield die resolved either on the fast candidate schedule or
	// by scalar demotion; the KindMap die counts in neither bucket.
	if health.Fault.DiesCheckedFast+health.Fault.DiesDemotedScalar != chips {
		t.Fatalf("healthz dies_checked_fast %d + dies_demoted_scalar %d, want sum %d",
			health.Fault.DiesCheckedFast, health.Fault.DiesDemotedScalar, chips)
	}

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats engine.Stats
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.DiesMapped != health.Fault.DiesMapped ||
		stats.DefectMapsGenerated != health.Fault.DefectMapsGenerated ||
		stats.MeanMapAttempts != health.Fault.MeanMapAttempts ||
		stats.DiesCheckedFast != health.Fault.DiesCheckedFast ||
		stats.DiesDemotedScalar != health.Fault.DiesDemotedScalar {
		t.Fatalf("stats fault counters %+v disagree with healthz %+v", stats, health.Fault)
	}
	if stats.MapAttempts < stats.DiesMapped {
		t.Fatalf("map_attempts_total %d below dies_mapped %d", stats.MapAttempts, stats.DiesMapped)
	}
}

// TestHealthzAndStatsReportPersistence covers the warm-restart
// observability: after seeding the engine from a snapshot, /healthz and
// /stats must both report the shard count, entry count, and how many
// entries came from the snapshot.
func TestHealthzAndStatsReportPersistence(t *testing.T) {
	// Warm engine: synthesize, snapshot, reload into a fresh engine.
	warm := engine.New(engine.Config{Workers: 2, CacheSize: 64}) // 4×2 = 8 shards
	if res := warm.DoCtx(context.Background(), engine.Request{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}}); !res.Ok() {
		t.Fatalf("warmup: %s", res.Error)
	}
	var snap bytes.Buffer
	n, err := warm.WriteCacheSnapshot(&snap)
	warm.Close()
	if err != nil || n != 1 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}

	eng := engine.New(engine.Config{Workers: 2, CacheSize: 64}) // 4×2 = 8 shards
	t.Cleanup(eng.Close)
	if loaded, err := eng.ReadCacheSnapshot(&snap); err != nil || loaded != 1 {
		t.Fatalf("load: loaded=%d err=%v", loaded, err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := healthCache{Shards: 8, Entries: 1, LoadedFromSnapshot: 1}
	if health.Cache != want {
		t.Fatalf("healthz cache %+v, want %+v", health.Cache, want)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st engine.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheShards != 8 || st.CacheEntries != 1 || st.CacheLoaded != 1 {
		t.Fatalf("stats shards=%d entries=%d loaded=%d, want 8/1/1", st.CacheShards, st.CacheEntries, st.CacheLoaded)
	}
	// The loaded entry must serve as a hit, with no synthesis run.
	res := submit(t, ts.URL, engine.Request{
		Kind:     engine.KindSynthesize,
		Function: engine.FunctionSpec{Name: "maj3"},
	})
	if res.Synthesis == nil || !res.Synthesis.CacheHit {
		t.Fatalf("warm-loaded function was not a cache hit: %+v", res)
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
	if res.Code != apierr.CodeBadSpec || res.Error == "" {
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

	// /stats must report exactly one synthesis and 99 cache hits.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st engine.Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SynthCalls != 1 || st.CacheMisses != 1 || st.CacheHits != 99 {
		t.Fatalf("stats synth=%d miss=%d hit=%d, want 1/1/99", st.SynthCalls, st.CacheMisses, st.CacheHits)
	}
	if st.Fingerprint == "" {
		t.Fatal("stats missing implementation fingerprint")
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
// -pprof flag, and that /stats carries the lattice evaluation counters.
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
	// counters surfaced in /stats. The counters are cumulative across
	// the whole test binary, so assert on the delta around this
	// request, not on being nonzero.
	getStats := func() engine.Stats {
		t.Helper()
		sr, err := http.Get(tsp.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Body.Close()
		var st engine.Stats
		if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := getStats()
	submit(t, tsp.URL, engine.Request{
		Kind:     engine.KindSynthesize,
		Function: engine.FunctionSpec{Expr: "x1x2 + x2x3 + x1x3"},
	})
	after := getStats()
	if after.Evaluation.FastImplements <= before.Evaluation.FastImplements ||
		after.Evaluation.WordBlocks <= before.Evaluation.WordBlocks {
		t.Fatalf("stats evaluation counters did not advance: before %+v after %+v",
			before.Evaluation, after.Evaluation)
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
