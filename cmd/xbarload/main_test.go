package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
)

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
	zero := metricsStub(t, "nanoxbar_http_panics_total 0\nnanoxbar_engine_panics_total 0\n")
	two := metricsStub(t, "nanoxbar_http_panics_total 2\nnanoxbar_engine_panics_total 0\n")
	engine := metricsStub(t, "nanoxbar_http_panics_total 0\nnanoxbar_engine_panics_total 1\n")
	noEngine := metricsStub(t, "nanoxbar_http_panics_total 0\n")
	missing := metricsStub(t, "nanoxbar_http_requests_total 9\n")
	broken := metricsStub(t, "")
	typed := fmt.Errorf("client: %w", nanoxbar.ErrUnavailable)
	injected := fmt.Errorf("chaos: injected 500: %w", nanoxbar.ErrInternal)
	untyped := errors.New("unexpected EOF")
	// sweep is the die check's verdict on a successful yield sweep that
	// streamed the given die indices.
	sweep := func(idx ...int) error {
		var t dieTally
		for _, i := range idx {
			t.add(i)
		}
		return t.check()
	}
	all := make([]int, chips)
	for i := range all {
		all[i] = i
	}

	cases := []struct {
		name    string
		opErr   error
		chaos   bool                   // the soak tolerates typed failures
		faults  *resilience.ChaosStats // a -chaos run's transport counts
		watch   map[string]string      // default: one server with zero panics
		killErr error                  // outcome of a cluster's kill-victim stream
		restart string                 // a cluster's restart error
		want    int
	}{
		{name: "clean", want: 0},
		{name: "typed chaos casualty", opErr: typed, chaos: true, want: 0},
		{name: "injected 500 under chaos", opErr: injected, chaos: true, want: 0},
		{name: "untyped op failure", opErr: untyped, chaos: true, want: 1},
		{name: "typed failure outside chaos", opErr: typed, want: 1},
		{name: "internal error without the chaos marker", opErr: fmt.Errorf("boom: %w", nanoxbar.ErrInternal), chaos: true, want: 1},
		{name: "recorded panic", watch: map[string]string{"n0": zero, "n1": two}, want: 1},
		{name: "recorded engine panic", watch: map[string]string{"server": engine}, want: 1},
		{name: "no panic counter", watch: map[string]string{"server": missing}, want: 1},
		{name: "no engine panic counter", watch: map[string]string{"server": noEngine}, want: 1},
		{name: "unreadable metrics", watch: map[string]string{"server": broken}, want: 1},
		{name: "typed kill-stream error", killErr: typed, want: 0},
		{name: "untyped kill-stream error", killErr: untyped, want: 1},
		{name: "failed restart", restart: "rebind 127.0.0.1:1: address in use", want: 1},
		{name: "complete yield sweep", opErr: sweep(all...), chaos: true, want: 0},
		{name: "yield sweep short of a die", opErr: sweep(all[1:]...), chaos: true, want: 1},
		{name: "yield sweep repeating a die", opErr: sweep(append([]int{0}, all[:chips-1]...)...), chaos: true, want: 1},
		{name: "yield sweep with an index out of range", opErr: sweep(append(all[:chips-1:chips-1], chips)...), chaos: true, want: 1},
		{name: "chaos run with injected faults", opErr: typed, chaos: true, faults: &resilience.ChaosStats{Requests: 40, Errors5xx: 1}, want: 0},
		{name: "chaos run without an injected fault", chaos: true, faults: &resilience.ChaosStats{Requests: 40}, want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := newSoakResult()
			res.observe(scSynthesize, nil, tc.chaos)
			res.observe(scMap, tc.opErr, tc.chaos)
			res.chaos = tc.faults
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

// TestUsage: the six flags are the whole interface; removed flags and
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
	if want := []string{"addr", "chaos", "cluster", "concurrency", "duration", "seed"}; !slices.Equal(flags, want) {
		t.Fatalf("-h lists %v, want %v", flags, want)
	}
	for _, args := range [][]string{
		{"-mix", "yield-heavy"},
		{"-workers", "4"},
		{"-out", "soak.json"},
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
// servers; each must pass its verdict and print the lines its mode
// reports.
func TestRunSoaks(t *testing.T) {
	if testing.Short() {
		t.Skip("soaks run for seconds")
	}
	cases := []struct {
		name  string
		args  []string
		lines []string // stderr text beyond the summary line
		hits  bool     // the summary's cache hit rate, read from /metrics, is positive
	}{
		{"plain", []string{"-duration", "500ms"}, nil, true},
		{"chaos", []string{"-chaos", "-duration", "500ms"}, []string{"xbarload: chaos: "}, false},
		{"cluster", []string{"-cluster", "2", "-duration", "2s"}, []string{"xbarload: cluster: 1 kill(s) 1 restart(s)"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr syncBuffer
			args := append([]string{"-seed", "1", "-concurrency", "4"}, tc.args...)
			if code := run(context.Background(), args, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			out := stderr.String()
			for _, want := range append([]string{" ops ("}, tc.lines...) {
				if !strings.Contains(out, want) {
					t.Fatalf("stderr lacks %q:\n%s", want, out)
				}
			}
			if _, rate, ok := strings.Cut(out, "cache hit rate "); tc.hits && (!ok || strings.HasPrefix(rate, "0.000")) {
				t.Fatalf("no positive cache hit rate in:\n%s", out)
			}
		})
	}
}
