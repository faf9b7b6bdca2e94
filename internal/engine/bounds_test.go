package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/core"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/qm"
)

// withOptions returns the default options with edit applied.
func withOptions(edit func(*core.Options)) *core.Options {
	o := core.DefaultOptions()
	edit(&o)
	return &o
}

// TestRequestBoundsReject: each synthesis bound rejects with bad_spec
// naming the bound, both when the cluster computes the routing key and
// when the request is served. KeyFor is checked first, so a request the
// bounds miss fails the test before any synthesis runs.
func TestRequestBoundsReject(t *testing.T) {
	e := newTestEngine(t)
	def := qm.DefaultOptions()
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
		{"exact with zero limits", Request{Function: FunctionSpec{Name: "9sym"},
			Options: &core.Options{Synth: latsynth.Options{Exact: true}}}, "Synth.QM.MaxPrimes in [1,50000], got 0"},
		{"MaxPrimes above default", Request{Function: FunctionSpec{Name: "9sym"},
			Options: withOptions(func(o *core.Options) { o.Synth.QM.MaxPrimes = def.MaxPrimes + 1 })}, "Synth.QM.MaxPrimes"},
		{"MaxCoverPrimes zero", Request{Function: FunctionSpec{Name: "9sym"},
			Options: withOptions(func(o *core.Options) { o.Synth.QM.MaxCoverPrimes = 0 })}, "Synth.QM.MaxCoverPrimes in [1,96], got 0"},
		{"MaxCoverWork zero", Request{Function: FunctionSpec{Name: "9sym"},
			Options: withOptions(func(o *core.Options) { o.Synth.QM.MaxCoverWork = 0 })}, "Synth.QM.MaxCoverWork in [1,2000000], got 0"},
		{"MaxCoverWork above default", Request{Function: FunctionSpec{Name: "9sym"},
			Options: withOptions(func(o *core.Options) { o.Synth.QM.MaxCoverWork = def.MaxCoverWork + 1 })}, "Synth.QM.MaxCoverWork"},
		{"PostReduceMaxArea above default", Request{Function: FunctionSpec{Name: "9sym"},
			Options: withOptions(func(o *core.Options) { o.Synth.PostReduceMaxArea = 1201 })}, "Synth.PostReduceMaxArea 1201 exceeds limit 1200"},
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

// TestRequestBoundsAdmit: requests at the bounds, the default options
// and the degraded options all pass.
func TestRequestBoundsAdmit(t *testing.T) {
	e := newTestEngine(t)
	def := qm.DefaultOptions()
	degraded := degradedOptions()
	for _, tc := range []struct {
		name  string
		req   Request
		serve bool // also serve it: cheap enough to synthesize here
	}{
		{"default options", Request{Function: FunctionSpec{Name: "maj3"}, Options: withOptions(func(*core.Options) {})}, true},
		{"degraded options", Request{Function: FunctionSpec{Name: "maj3"}, Options: &degraded}, true},
		{"limits at the defaults", Request{Function: FunctionSpec{Name: "maj3"}, Options: withOptions(func(o *core.Options) {
			o.Synth.QM = qm.Options{MaxPrimes: def.MaxPrimes, MaxCoverPrimes: def.MaxCoverPrimes, MaxCoverWork: def.MaxCoverWork}
			o.Synth.PostReduceMaxArea = 1200
		})}, true},
		{"limits at one", Request{Function: FunctionSpec{Name: "maj3"}, Options: withOptions(func(o *core.Options) {
			o.Synth.QM = qm.Options{MaxPrimes: 1, MaxCoverPrimes: 1, MaxCoverWork: 1}
		})}, true},
		{"heuristic with zero limits", Request{Function: FunctionSpec{Name: "maj3"}, Options: &core.Options{}}, true},
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

// FuzzResolveRequest drives the request boundary with arbitrary jobs
// bodies, decoded as the HTTP layer decodes them (unknown fields
// rejected). KeyFor must never panic, every error it returns is
// bad_spec, and every request it accepts meets the synthesis bounds.
//
//	go test -run '^$' -fuzz FuzzResolveRequest -fuzztime 60s -fuzzminimizetime 2s ./internal/engine/
func FuzzResolveRequest(f *testing.F) {
	for _, body := range []string{
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
		`{"requests":[{"kind":"synthesize","function":{"name":"9sym"},"options":{"Synth":{"Exact":true}}}]}`,
		`{"requests":[{"kind":"synthesize","function":{"name":"9sym"},"options":{"Synth":{"Exact":true,"QM":{"MaxPrimes":50000,"MaxCoverPrimes":96,"MaxCoverWork":2000000},"PostReduceMaxArea":5000}}}]}`,
	} {
		f.Add([]byte(body))
	}
	e := New(Config{Workers: 1, CacheSize: 8})
	f.Cleanup(e.Close)
	def := qm.DefaultOptions()
	f.Fuzz(func(t *testing.T, body []byte) {
		var jobs struct {
			Requests   []Request `json:"requests"`
			StreamDies bool      `json:"stream_dies,omitempty"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&jobs) != nil {
			return
		}
		for i, req := range jobs.Requests {
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
			o := req.Options
			if o == nil {
				continue
			}
			if q := o.Synth.QM; o.Synth.Exact && (q.MaxPrimes < 1 || q.MaxPrimes > def.MaxPrimes ||
				q.MaxCoverPrimes < 1 || q.MaxCoverPrimes > def.MaxCoverPrimes ||
				q.MaxCoverWork < 1 || q.MaxCoverWork > def.MaxCoverWork) {
				t.Fatalf("request %d: accepted exact options with QM limits %+v", i, q)
			}
			if a := o.Synth.PostReduceMaxArea; a > 1200 {
				t.Fatalf("request %d: accepted PostReduceMaxArea %d", i, a)
			}
		}
	})
}
