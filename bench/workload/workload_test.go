package workload

import (
	"context"
	"testing"
	"time"

	"nanoxbar/pkg/nanoxbar"
)

// A damaged output must fail the run in every workload.
func TestCorruptedOutputsFail(t *testing.T) {
	damageSynthesis := func(v any) {
		if op, ok := v.(*serveOp); ok && op.syn != nil {
			op.syn.Area++
		}
	}
	cases := map[string]func(any){
		"synth-cold": func(v any) {
			if c, ok := v.(*nanoxbar.TechComparison); ok {
				c.FET.Cols++
			}
		},
		"yield-sweep": func(v any) {
			if ys, ok := v.(*nanoxbar.YieldStats); ok {
				ys.Successes = ys.Chips + 1
			}
		},
		"serve-hot":   damageSynthesis,
		"serve-churn": damageSynthesis,
	}
	for name, corrupt := range cases {
		rep, err := Run(context.Background(), name, Config{Seed: 1, Seconds: 0.05, Short: true, Corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct() || rep.Failed == 0 {
			t.Errorf("%s: damaged outputs passed (%d attempted, %d failed)", name, rep.Attempted, rep.Failed)
		}
	}
}

// Requests an overloaded generator never sends are failures, not
// samples missing from the tail.
func TestUnissuedRequestsFail(t *testing.T) {
	p := hotProfile
	p.named, p.poolSize = p.named[:4], 8
	s := &serveRun{cfg: Config{Seed: 1}, p: p, rep: newReport(false), first: make(map[int]nanoxbar.Synthesis)}
	if err := s.buildPool(); err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(p.cache)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	s.srv = srv
	// About 50000 requests due within 50 ms: far more than two callers
	// can send before the cutoff a second later.
	r := s.phase(context.Background(), 1e6, 50*time.Millisecond, 1, nil)
	if unsent := len(r.ops) - r.Issued; unsent == 0 || s.rep.Failed < unsent || s.rep.Attempted != len(r.ops) {
		t.Fatalf("%d scheduled, %d issued: attempted %d, failed %d", len(r.ops), r.Issued, s.rep.Attempted, s.rep.Failed)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2 {
		t.Errorf("nearest-rank median %v", q)
	}
	if m := median(xs); m != 2.5 {
		t.Errorf("median %v", m)
	}
	if q := quantile(xs, 0.99); q != 4 {
		t.Errorf("p99 %v", q)
	}
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean %v", g)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
}
