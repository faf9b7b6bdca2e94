package nanoxbar_test

// The static-analysis gate: go test enforces every xbarvet invariant
// (depguard, clockdiscipline, seededrand, metricnames, errtaxonomy,
// ctxfirst, lanegate, testonly) over the whole module, so a convention
// violation fails the ordinary test run, not just a separately-invoked
// linter. This is the successor to the old file-walking depguard test —
// the import rule now lives in internal/analysis/depguard.go with the
// other invariants.
//
// CI also runs `go run ./cmd/xbarvet ./...` in the lint job; this test
// keeps local `go test ./...` equivalent to that gate.

import (
	"testing"

	"nanoxbar/internal/analysis"
)

func TestProjectInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res := analysis.Run(l, pkgs, analysis.Analyzers())
	for _, te := range res.TypeErrors {
		t.Errorf("type error: %s", te)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded — the gate checked nothing")
	}
}
