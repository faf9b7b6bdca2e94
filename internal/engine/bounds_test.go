package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"nanoxbar/internal/apierr"
)

// TestRequestBoundsReject: each synthesis bound rejects with bad_spec
// naming the bound, both when the cluster computes the routing key and
// when the request is served. KeyFor is checked first, so a request the
// bounds miss fails the test before any synthesis runs.
func TestRequestBoundsReject(t *testing.T) {
	e := newTestEngine(t)
	for _, tc := range []struct {
		name string
		req  Request
		want string // in the error message
	}{
		{"deep expression", Request{Function: FunctionSpec{Expr: strings.Repeat("!", 100_000) + "x1"}}, "expression of 100002 bytes exceeds limit 16384"},
		{"expression one byte over", Request{Function: FunctionSpec{Expr: "x1" + strings.Repeat(" ", maxExprBytes-1)}}, "exceeds limit 16384"},
		{"13-variable table", Request{Function: FunctionSpec{TT: "13:0x1"}}, "function of 13 variables exceeds limit 12"},
		{"24-variable table", Request{Function: FunctionSpec{TT: "24:0x1"}}, "function of 24 variables exceeds limit 12"},
		{"13-variable expression", Request{Function: FunctionSpec{Expr: "x1 + x13"}}, "function of 13 variables exceeds limit 12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Kind = KindSynthesize
			if _, err := e.KeyFor(tc.req); !errors.Is(err, apierr.ErrBadSpec) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("KeyFor = %v, want bad_spec naming %q", err, tc.want)
			}
			res := e.DoCtx(context.Background(), tc.req)
			if apierr.CodeOf(res.Err) != apierr.CodeBadSpec || !strings.Contains(res.Err.Error(), tc.want) {
				t.Fatalf("DoCtx = %q %v, want bad_spec naming %q", apierr.CodeOf(res.Err), res.Err, tc.want)
			}
		})
	}
	if st := e.Stats(); st.SynthCalls != 0 {
		t.Fatalf("rejected requests ran %d syntheses", st.SynthCalls)
	}
}

// TestRequestBoundsAdmit: requests at the bounds pass.
func TestRequestBoundsAdmit(t *testing.T) {
	e := newTestEngine(t)
	for _, tc := range []struct {
		name  string
		req   Request
		serve bool // also serve it: cheap enough to synthesize here
	}{
		{"expression at the limit", Request{Function: FunctionSpec{Expr: "x1x2 + x3" + strings.Repeat(" ", maxExprBytes-9)}}, true},
		{"12-variable table", Request{Function: FunctionSpec{TT: "12:0x1"}}, false},
		{"12-variable expression", Request{Function: FunctionSpec{Expr: "x1 + x12"}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Kind = KindSynthesize
			if _, err := e.KeyFor(tc.req); err != nil {
				t.Fatalf("KeyFor = %v", err)
			}
			if !tc.serve {
				return
			}
			if res := e.DoCtx(context.Background(), tc.req); !res.Ok() {
				t.Fatalf("DoCtx = %v %v", apierr.CodeOf(res.Err), res.Err)
			}
		})
	}
}

// TestDensityBounds: a map or yield request drawing random dies answers
// bad_spec naming its density unless it lies in [0, 1]; NaN and the
// infinities reach the engine only from SDK callers. An explicit chip
// draws nothing, so its map ignores the density.
func TestDensityBounds(t *testing.T) {
	e := newTestEngine(t)
	for _, kind := range []Kind{KindMap, KindYield} {
		for _, d := range []float64{-0.5, 1.0000001, 2, math.NaN(), math.Inf(1)} {
			req := Request{Kind: kind, Function: FunctionSpec{Name: "maj3"}, Density: d, Seed: 1, Chips: 4}
			res := e.DoCtx(context.Background(), req)
			if apierr.CodeOf(res.Err) != apierr.CodeBadSpec || !strings.Contains(res.Err.Error(), "density") {
				t.Errorf("%s at density %v = %q %v, want bad_spec naming the density", kind, d, apierr.CodeOf(res.Err), res.Err)
			}
		}
		for _, d := range []float64{0, 1} {
			req := Request{Kind: kind, Function: FunctionSpec{Name: "maj3"}, Density: d, Seed: 1, Chips: 4}
			if res := e.DoCtx(context.Background(), req); !res.Ok() {
				t.Errorf("%s at density %v = %q %v, want an answer", kind, d, apierr.CodeOf(res.Err), res.Err)
			}
		}
	}
	chip := &DefectMapSpec{Rows: []string{"....", "....", "....", "...."}}
	if res := e.DoCtx(context.Background(), Request{Kind: KindMap, Function: FunctionSpec{Name: "maj3"}, Chip: chip, Density: 2}); !res.Ok() {
		t.Errorf("map on an explicit chip at density 2 = %q %v, want an answer", apierr.CodeOf(res.Err), res.Err)
	}
}

// TestEveryFunctionAnswersTyped crosses every function of one to three
// variables with every request kind, technology and mapping scheme.
// Each request answers a result or a typed infeasible error, never
// internal, except the 54 map and yield requests whose implementation
// has no array rows — constant 0 on diode and FET, constant 1 on FET —
// which answer bad_spec.
func TestEveryFunctionAnswersTyped(t *testing.T) {
	e := newTestEngine(t)
	var reqs []Request
	for n := 1; n <= 3; n++ {
		for tt := 0; tt < 1<<(1<<n); tt++ {
			fn := FunctionSpec{TT: fmt.Sprintf("%d:0x%x", n, tt)}
			for _, tech := range []string{"diode", "fet", "lattice"} {
				reqs = append(reqs, Request{Kind: KindSynthesize, Function: fn, Tech: tech},
					Request{Kind: KindCompare, Function: fn, Tech: tech})
				for _, scheme := range []string{"blind", "greedy", "hybrid"} {
					for _, kind := range []Kind{KindMap, KindYield} {
						reqs = append(reqs, Request{Kind: kind, Function: fn, Tech: tech, Scheme: scheme,
							Density: 0.05, Seed: 1, Chips: 8})
					}
				}
			}
		}
	}
	for i, res := range e.submitBatch(reqs) {
		req := reqs[i]
		n, _ := strconv.Atoi(req.Function.TT[:1])
		zero := req.Function.TT == fmt.Sprintf("%d:0x0", n)
		one := req.Function.TT == fmt.Sprintf("%d:0x%x", n, 1<<(1<<n)-1)
		noRows := zero && req.Tech != "lattice" || one && req.Tech == "fet"
		wantBadSpec := noRows && (req.Kind == KindMap || req.Kind == KindYield)
		switch code := apierr.CodeOf(res.Err); {
		case wantBadSpec && code == apierr.CodeBadSpec:
		case !wantBadSpec && (res.Ok() || code == apierr.CodeInfeasible):
		default:
			t.Errorf("%s %s on %s (%s): %q %v", req.Kind, req.Function.TT, req.Tech, req.Scheme, code, res.Err)
		}
	}
}

// requestSeeds are the jobs bodies both request fuzz targets start
// from.
var requestSeeds = []string{
	// README's request bodies.
	`{"requests":[{"kind":"synthesize","function":{"expr":"x1x2 + x1x3 + x2x3"}}]}`,
	`{"requests":[{"kind":"compare","function":{"name":"9sym"}}]}`,
	`{"requests":[{"kind":"map","function":{"name":"maj5"},"density":0.05,"seed":42,"scheme":"hybrid"}]}`,
	`{"requests":[{"kind":"yield","function":{"name":"maj3"},"density":0.04,"chips":200,"seed":7}]}`,
	`{"stream_dies":true,"requests":[{"kind":"yield","function":{"name":"maj3"},"density":0.04,"chips":3,"seed":7}]}`,
	`{"requests":[{"function":{"name":"fig4"},"density":0.05,"seed":0}]}`,
	`{"requests":[{"kind":"map","function":{"name":"9sym"},"chip_size":8,"seed":1}]}`,
	`{"requests":[{"kind":"synthesize","function":{"tt":"3:0xe8"},"tech":"diode"}]}`,
	// TestV2StatusMapping's bodies, the oversized ones shortened.
	`{nope`,
	`{"requests":[]}`,
	`{"requests":[{"kind":"map","function":{"expr":"xxxxxxxx"}}]}`,
	`{"requests":[{"kind":"synthesize","function":{"name":"maj3"}},{"kind":"synthesize","function":{"name":"maj3"}}]}`,
	// The hostile shapes, shortened.
	`{"requests":[{"kind":"synthesize","function":{"expr":"!!!!!!!!!!!!!!!!x1"}}]}`,
	`{"requests":[{"kind":"synthesize","function":{"expr":"x1+x1+x1+x1+x1+x1+x1+x1"}}]}`,
	`{"requests":[{"kind":"synthesize","function":{"tt":"13:0x1"}}]}`,
	`{"requests":[{"kind":"synthesize","function":{"expr":"x13"}}]}`,
	// Bodies pinning synthesis options, a field the decoder rejects.
	`{"requests":[{"kind":"synthesize","function":{"name":"9sym"},"options":{"Synth":{"Exact":true}}}]}`,
	`{"requests":[{"kind":"synthesize","function":{"name":"9sym"},"options":{"Synth":{"Exact":true,"QM":{"MaxPrimes":50000,"MaxCoverPrimes":96,"MaxCoverWork":2000000},"PostReduceMaxArea":5000}}}]}`,
}

// FuzzResolveRequest drives the request boundary with arbitrary jobs
// bodies, decoded as the HTTP layer decodes them (unknown fields
// rejected). KeyFor must never panic, every error it returns is
// bad_spec, and every request it accepts meets the function bounds.
//
//	go test -run '^$' -fuzz FuzzResolveRequest -fuzztime 60s -fuzzminimizetime 2s ./internal/engine/
func FuzzResolveRequest(f *testing.F) {
	for _, body := range requestSeeds {
		f.Add([]byte(body))
	}
	e := New(Config{Workers: 1, CacheSize: 8})
	f.Cleanup(e.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		for i, req := range decodeJobs(body) {
			if _, err := e.KeyFor(req); err != nil {
				if !errors.Is(err, apierr.ErrBadSpec) {
					t.Fatalf("request %d: KeyFor error %v is not bad_spec", i, err)
				}
				continue
			}
			if n := len(req.Function.Expr); n > maxExprBytes {
				t.Fatalf("request %d: accepted a %d-byte expression", i, n)
			}
			fn, err := req.Function.Resolve()
			if err != nil {
				t.Fatalf("request %d: KeyFor accepted what Resolve rejects: %v", i, err)
			}
			if n := fn.NumVars(); n > maxFunctionVars {
				t.Fatalf("request %d: accepted a function of %d variables", i, n)
			}
		}
	})
}

// decodeJobs decodes a jobs body as the HTTP layer does (unknown fields
// rejected) and returns its requests, none when it does not decode.
func decodeJobs(body []byte) []Request {
	var jobs struct {
		Requests   []Request `json:"requests"`
		StreamDies bool      `json:"stream_dies,omitempty"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&jobs) != nil {
		return nil
	}
	return jobs.Requests
}

// FuzzRunRequest runs arbitrary jobs bodies through a one-worker engine.
// Every request KeyFor accepts is cut to small bounds — a function of
// at most 5 variables, at most 16 dies of at most 16×16, at most 20
// attempts — and served under a 1 s deadline; it must answer a result
// or a typed error, never internal.
//
//	go test -run '^$' -fuzz FuzzRunRequest -fuzztime 60s -fuzzminimizetime 2s ./internal/engine/
func FuzzRunRequest(f *testing.F) {
	for _, body := range requestSeeds {
		f.Add([]byte(body))
	}
	// Constant functions: their diode and FET arrays have no rows.
	for _, body := range []string{
		`{"requests":[{"kind":"map","function":{"tt":"2:0x0"},"tech":"diode","density":0.05,"seed":1}]}`,
		`{"requests":[{"kind":"map","function":{"tt":"3:0xff"},"tech":"fet","chip_size":8,"seed":1}]}`,
		`{"requests":[{"kind":"yield","function":{"tt":"1:0x0"},"tech":"fet","density":0.05,"chips":8,"seed":1}]}`,
		`{"requests":[{"kind":"yield","function":{"tt":"2:0xf"},"tech":"fet","density":0.05,"chips":8,"seed":1,"scheme":"blind"}]}`,
	} {
		f.Add([]byte(body))
	}
	e := New(Config{Workers: 1, CacheSize: 8})
	f.Cleanup(e.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		for i, req := range decodeJobs(body) {
			if _, err := e.KeyFor(req); err != nil {
				continue
			}
			if fn, _ := req.Function.Resolve(); fn.NumVars() > 5 {
				continue
			}
			if c := req.Chip; c != nil && (len(c.Rows) > 16 || len(c.Rows) > 0 && len(c.Rows[0]) > 16) {
				continue
			}
			if req.Chips < 1 || req.Chips > 16 {
				req.Chips = 16
			}
			if req.ChipSize < 1 || req.ChipSize > 16 {
				req.ChipSize = 16
			}
			if req.MaxAttempts < 1 || req.MaxAttempts > 20 {
				req.MaxAttempts = 20
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			res := e.DoCtx(ctx, req)
			cancel()
			if errors.Is(res.Err, apierr.ErrInternal) {
				t.Fatalf("request %d %+v: %v", i, req, res.Err)
			}
		}
	})
}
