package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nanoxbar/internal/benchreport"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Scrapes bracketing a fixed soak: the map kind and the die_map stage
// saw no traffic in between, yield and cache_lookup are absent, so only
// the synthesize and queue-wait quantiles reach Soak/server.
const (
	scrapeBefore = `# TYPE nanoxbar_request_duration_seconds histogram
nanoxbar_request_duration_seconds_bucket{kind="synthesize",le="0.001"} 1
nanoxbar_request_duration_seconds_bucket{kind="synthesize",le="0.002"} 2
nanoxbar_request_duration_seconds_bucket{kind="synthesize",le="+Inf"} 2
nanoxbar_request_duration_seconds_sum{kind="synthesize"} 0.002
nanoxbar_request_duration_seconds_count{kind="synthesize"} 2
nanoxbar_request_duration_seconds_bucket{kind="map",le="0.001"} 4
nanoxbar_request_duration_seconds_bucket{kind="map",le="0.002"} 4
nanoxbar_request_duration_seconds_bucket{kind="map",le="+Inf"} 4
nanoxbar_request_duration_seconds_sum{kind="map"} 0.003
nanoxbar_request_duration_seconds_count{kind="map"} 4
# TYPE nanoxbar_stage_duration_seconds histogram
nanoxbar_stage_duration_seconds_bucket{stage="queue_wait",le="0.0005"} 0
nanoxbar_stage_duration_seconds_bucket{stage="queue_wait",le="0.001"} 0
nanoxbar_stage_duration_seconds_bucket{stage="queue_wait",le="+Inf"} 0
nanoxbar_stage_duration_seconds_sum{stage="queue_wait"} 0
nanoxbar_stage_duration_seconds_count{stage="queue_wait"} 0
`
	scrapeAfter = `# TYPE nanoxbar_request_duration_seconds histogram
nanoxbar_request_duration_seconds_bucket{kind="synthesize",le="0.001"} 5
nanoxbar_request_duration_seconds_bucket{kind="synthesize",le="0.002"} 10
nanoxbar_request_duration_seconds_bucket{kind="synthesize",le="+Inf"} 12
nanoxbar_request_duration_seconds_sum{kind="synthesize"} 0.03
nanoxbar_request_duration_seconds_count{kind="synthesize"} 12
nanoxbar_request_duration_seconds_bucket{kind="map",le="0.001"} 4
nanoxbar_request_duration_seconds_bucket{kind="map",le="0.002"} 4
nanoxbar_request_duration_seconds_bucket{kind="map",le="+Inf"} 4
nanoxbar_request_duration_seconds_sum{kind="map"} 0.003
nanoxbar_request_duration_seconds_count{kind="map"} 4
# TYPE nanoxbar_stage_duration_seconds histogram
nanoxbar_stage_duration_seconds_bucket{stage="queue_wait",le="0.0005"} 6
nanoxbar_stage_duration_seconds_bucket{stage="queue_wait",le="0.001"} 8
nanoxbar_stage_duration_seconds_bucket{stage="queue_wait",le="+Inf"} 8
nanoxbar_stage_duration_seconds_sum{stage="queue_wait"} 0.004
nanoxbar_stage_duration_seconds_count{stage="queue_wait"} 8
`
)

func parseScrape(t *testing.T, text string) *telemetry.Exposition {
	t.Helper()
	exp, err := telemetry.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// fixedResult is a soak outcome with every report input set: scenario
// i (0-based, report order) took (i+1)·k·100µs for k = 1..20, so p50,
// p90, p99 and max are distinct samples; two maps failed, and yield
// sweeps streamed eight dies.
func fixedResult(t *testing.T) *soakResult {
	res := newSoakResult()
	for i, sc := range scenarioOrder {
		for k := 20; k >= 1; k-- {
			res.latencies[sc] = append(res.latencies[sc], time.Duration((i+1)*k)*100*time.Microsecond)
		}
	}
	res.failed[scMap] = 2
	res.typed = 3
	res.dieLats = []time.Duration{5 * time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, 4 * time.Microsecond}
	res.dieAttempts, res.dieEvents = 12, 8
	res.statsBefore = nanoxbar.Stats{CacheHits: 100, CacheMisses: 10, SynthCalls: 10}
	res.statsAfter = nanoxbar.Stats{CacheHits: 490, CacheMisses: 20, CacheEntries: 20, CacheLoaded: 4, SynthCalls: 21}
	res.metricsBefore = parseScrape(t, scrapeBefore)
	res.metricsAfter = parseScrape(t, scrapeAfter)
	return res
}

// writeReport writes rep as run does, with the fields that name the
// time and the toolchain blanked, and returns the file's bytes.
func writeReport(t *testing.T, rep benchreport.Report) []byte {
	t.Helper()
	rep.GeneratedAt, rep.GoVersion, rep.GOOS, rep.GOARCH = "", "", "", ""
	path := filepath.Join(t.TempDir(), "report.json")
	if err := benchreport.WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from %s (run `go test ./cmd/xbarload -run Golden -update` if intended)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestReportGolden pins the plain soak report: block names, Pkg,
// metric keys and the values derived from a fixed result.
func TestReportGolden(t *testing.T) {
	checkGolden(t, "report.json", writeReport(t, fixedResult(t).report(2*time.Second)))
}

// TestReportWithoutScrape: without the opening /metrics scrape the
// report says so and carries no Soak/server block.
func TestReportWithoutScrape(t *testing.T) {
	res := fixedResult(t)
	res.metricsBefore = nil
	rep := res.report(2 * time.Second)
	if got := rep.Notes["metrics_scrape"]; got != "skipped" {
		t.Fatalf("notes.metrics_scrape = %q, want skipped", got)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "Soak/server" {
			t.Fatalf("report without an opening scrape carries %+v", b)
		}
	}
}

// TestClusterBlocksGolden pins the blocks the CI cluster gate reads:
// Soak/cluster reports p50 and Soak/cluster/p99 reports p99 as ns/op,
// over the latencies of every scenario together.
func TestClusterBlocksGolden(t *testing.T) {
	res := newSoakResult()
	for k := 100; k >= 1; k-- { // 1..100 ms spread over the scenarios
		sc := scenarioOrder[k%len(scenarioOrder)]
		res.latencies[sc] = append(res.latencies[sc], time.Duration(k)*time.Millisecond)
	}
	h := &harness{n: 3, members: map[string]*member{}, kills: 1, restarts: 1, killTyped: 1, warmEntries: 48}
	blocks := h.benchmarks(res)
	if len(blocks) != 2 || blocks[0].Name != "Soak/cluster" || blocks[1].Name != "Soak/cluster/p99" {
		t.Fatalf("cluster blocks %+v", blocks)
	}
	// p = ⌊q·99⌋-th of 1..100 ms: p50 is 50 ms, p99 is 99 ms.
	if p50 := float64(50 * time.Millisecond); blocks[0].NsPerOp != p50 || blocks[0].Metrics["p50-ns"] != p50 {
		t.Fatalf("Soak/cluster ns/op %v, p50-ns %v, want %v", blocks[0].NsPerOp, blocks[0].Metrics["p50-ns"], p50)
	}
	if p99 := float64(99 * time.Millisecond); blocks[1].NsPerOp != p99 || blocks[1].Metrics["p99-ns"] != p99 {
		t.Fatalf("Soak/cluster/p99 ns/op %v, p99-ns %v, want %v", blocks[1].NsPerOp, blocks[1].Metrics["p99-ns"], p99)
	}
	checkGolden(t, "cluster.json", writeReport(t, benchreport.Report{Benchtime: "5s", Benchmarks: blocks}))
}

// metricsStub serves a /metrics body, or a 500 for an empty one.
func metricsStub(t *testing.T, body string) string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body == "" {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestVerdict: each rule that fails a soak gives exit 1 on its own, and
// the outcomes a soak tolerates give exit 0.
func TestVerdict(t *testing.T) {
	zero := metricsStub(t, "nanoxbar_http_panics_total 0\n")
	two := metricsStub(t, "nanoxbar_http_panics_total 2\n")
	missing := metricsStub(t, "nanoxbar_http_requests_total 9\n")
	broken := metricsStub(t, "")
	typed := fmt.Errorf("client: %w", nanoxbar.ErrUnavailable)
	injected := fmt.Errorf("chaos: injected 500: %w", nanoxbar.ErrInternal)
	untyped := errors.New("unexpected EOF")

	cases := []struct {
		name    string
		opErr   error
		chaos   bool              // the soak tolerates typed failures
		watch   map[string]string // default: one server with zero panics
		killErr error             // outcome of a cluster's kill-victim stream
		restart string            // a cluster's restart error
		want    int
	}{
		{name: "clean", want: 0},
		{name: "typed chaos casualty", opErr: typed, chaos: true, want: 0},
		{name: "injected 500 under chaos", opErr: injected, chaos: true, want: 0},
		{name: "untyped op failure", opErr: untyped, chaos: true, want: 1},
		{name: "typed failure outside chaos", opErr: typed, want: 1},
		{name: "internal error without the chaos marker", opErr: fmt.Errorf("boom: %w", nanoxbar.ErrInternal), chaos: true, want: 1},
		{name: "recorded panic", watch: map[string]string{"n0": zero, "n1": two}, want: 1},
		{name: "no panic counter", watch: map[string]string{"server": missing}, want: 1},
		{name: "unreadable metrics", watch: map[string]string{"server": broken}, want: 1},
		{name: "typed kill-stream error", killErr: typed, want: 0},
		{name: "untyped kill-stream error", killErr: untyped, want: 1},
		{name: "failed restart", restart: "rebind 127.0.0.1:1: address in use", want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := newSoakResult()
			res.observe(scSynthesize, time.Millisecond, nil, tc.chaos)
			res.observe(scMap, time.Millisecond, tc.opErr, tc.chaos)
			watch := tc.watch
			if watch == nil {
				watch = map[string]string{"n0": zero}
			}
			h := &harness{n: 2, members: map[string]*member{}, restartErr: tc.restart}
			h.observeKillStream(tc.killErr)
			var stderr bytes.Buffer
			if got := verdict(context.Background(), &stderr, res, watch, h); got != tc.want {
				t.Fatalf("verdict = %d, want %d; stderr:\n%s", got, tc.want, stderr.String())
			}
		})
	}
}

// TestUsage: the seven flags are the whole interface; removed flags and
// bad combinations are usage errors.
func TestUsage(t *testing.T) {
	var help bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &help); code != 0 {
		t.Fatalf("-h exit %d", code)
	}
	var flags []string
	for _, line := range strings.Split(help.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(f)[0])
		}
	}
	if want := []string{"addr", "chaos", "cluster", "concurrency", "duration", "out", "seed"}; !slices.Equal(flags, want) {
		t.Fatalf("-h lists %v, want %v", flags, want)
	}
	for _, args := range [][]string{
		{"-mix", "yield-heavy"},
		{"-workers", "4"},
		{"-concurrency", "0"},
		{"-cluster", "1"},
		{"-cluster", "2", "-chaos"},
		{"-cluster", "2", "-addr", "http://127.0.0.1:1"},
	} {
		if code := run(context.Background(), args, &bytes.Buffer{}); code != 2 {
			t.Errorf("run %v exit %d, want 2", args, code)
		}
	}
}

// syncBuffer collects the soak workers' concurrent stderr writes.
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

// TestRunSoaks drives short soaks of each mode against in-process
// servers; each must pass its verdict and write every block its mode
// reports.
func TestRunSoaks(t *testing.T) {
	if testing.Short() {
		t.Skip("soaks run for seconds")
	}
	plain := []string{"Soak/synthesize", "Soak/map", "Soak/yield", "Soak/cancel", "Soak/die", "Soak/server", "Soak/cache"}
	cases := []struct {
		name   string
		args   []string
		blocks []string
	}{
		{"plain", []string{"-duration", "500ms"}, plain},
		{"chaos", []string{"-chaos", "-duration", "500ms"}, append(slices.Clone(plain), "Soak/chaos")},
		{"cluster", []string{"-cluster", "2", "-duration", "2s"}, append(slices.Clone(plain), "Soak/cluster", "Soak/cluster/p99")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "soak.json")
			var stderr syncBuffer
			args := append([]string{"-seed", "1", "-concurrency", "4", "-out", out}, tc.args...)
			if code := run(context.Background(), args, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			rep, err := benchreport.Load(out)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, b := range rep.Benchmarks {
				if b.Pkg != pkg {
					t.Errorf("block %s has Pkg %q", b.Name, b.Pkg)
				}
				names = append(names, b.Name)
			}
			if !slices.Equal(names, tc.blocks) {
				t.Fatalf("blocks %v, want %v; stderr:\n%s", names, tc.blocks, stderr.String())
			}
		})
	}
}
