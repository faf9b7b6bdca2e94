package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestAnalyzerRoster pins the suite's membership: dropping an analyzer
// from Analyzers() must fail loudly, not silently shrink coverage.
func TestAnalyzerRoster(t *testing.T) {
	wantNames := []string{"depguard", "clockdiscipline", "seededrand", "metricnames", "errtaxonomy", "ctxfirst", "lanegate", "testonly"}
	got := Analyzers()
	if len(got) != len(wantNames) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(wantNames))
	}
	for i, a := range got {
		if a.Name != wantNames[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, wantNames[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}

func TestDepguardFixtures(t *testing.T) {
	dirs := []string{
		fixtureDir("depguard", "badcli"),
		fixtureDir("depguard", "okcli"),
		fixtureDir("depguard", "outofscope"),
	}
	checkWants(t, runOn(t, "depguard", dirs...), dirs...)
}

func TestClockDisciplineFixtures(t *testing.T) {
	dirs := []string{
		fixtureDir("clockdiscipline", "bad"),
		fixtureDir("clockdiscipline", "clockparam"),
	}
	res := runOn(t, "clockdiscipline", dirs...)
	checkWants(t, res, dirs...)
	// The bad fixture carries one reasoned //xbarvet:ignore; the finding
	// it covers must be counted as suppressed, not listed or lost.
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
}

func TestSeededRandFixtures(t *testing.T) {
	dirs := []string{
		fixtureDir("seededrand", "bad"),
		fixtureDir("seededrand", "outofscope"),
	}
	checkWants(t, runOn(t, "seededrand", dirs...), dirs...)
}

func TestMetricNamesFixtures(t *testing.T) {
	dirs := []string{
		fixtureDir("metricnames", "bad"),
		fixtureDir("metricnames", "ok"),
	}
	checkWants(t, runOn(t, "metricnames", dirs...), dirs...)
}

func TestErrTaxonomyFixtures(t *testing.T) {
	dirs := []string{
		fixtureDir("errtaxonomy", "bad"),
		fixtureDir("errtaxonomy", "outofscope"),
	}
	checkWants(t, runOn(t, "errtaxonomy", dirs...), dirs...)
}

func TestCtxFirstFixtures(t *testing.T) {
	dirs := []string{fixtureDir("ctxfirst", "bad")}
	checkWants(t, runOn(t, "ctxfirst", dirs...), dirs...)
}

// testOnlyLoader loads the testonly fixture, a module of its own: the
// analyzer judges only loads of a whole module, and the repository
// module's ./... walk skips testdata.
var testOnlyLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader("testdata/src/testonly")
})

// runTestOnly loads patterns from the testonly fixture module and runs
// the testonly analyzer alone over them.
func runTestOnly(t *testing.T, patterns ...string) Result {
	t.Helper()
	l, err := testOnlyLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return runWith(t, l, []*Analyzer{newTestOnly()}, patterns...)
}

func TestTestOnlyFixtures(t *testing.T) {
	res := runTestOnly(t, "./...")
	// Paths come back relative to the fixture module; the want comments
	// are keyed relative to this module. The reasonless ignore over
	// Silent is reported at the directive, where a want comment would
	// become its reason, so it is asserted directly.
	var kept []Diagnostic
	var reasonless int
	for _, d := range res.Diagnostics {
		if d.Analyzer == "xbarvet" {
			if d.File != "internal/lib/lib.go" || !strings.Contains(d.Message, "missing a reason") {
				t.Errorf("unexpected driver diagnostic: %s", d)
			}
			reasonless++
			continue
		}
		d.File = fixtureDir("testonly", d.File)
		kept = append(kept, d)
	}
	if reasonless != 1 {
		t.Errorf("got %d reasonless-ignore diagnostics, want 1", reasonless)
	}
	res.Diagnostics = kept
	checkWants(t, res, fixtureDir("testonly", "internal/lib"), fixtureDir("testonly", "cmd/tool"),
		fixtureDir("testonly", "examples/demo"), fixtureDir("testonly", "pkg/nanoxbar"))
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the reasoned ignore over Seam)", res.Suppressed)
	}
}

// TestTestOnlyPartialLoadReportsNothing: without every package of the
// module loaded, a missing reference proves nothing, so the analyzer
// stays silent.
func TestTestOnlyPartialLoadReportsNothing(t *testing.T) {
	for _, d := range runTestOnly(t, "internal/lib").Diagnostics {
		if d.Analyzer == "testonly" {
			t.Errorf("partial load reported %s", d)
		}
	}
}

// TestFinishFindingsHonourIgnores pins how Run filters Finish findings:
// one anchored on a loaded Go line under a reasoned //xbarvet:ignore is
// suppressed like a per-package finding, while one anchored in a file
// the loader never parses, such as a CI workflow, always surfaces.
func TestFinishFindingsHonourIgnores(t *testing.T) {
	l := loader(t)
	dir := fixtureDir("ignore", "reasoned")
	pkgs, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	goFile := filepath.Join(l.Root, filepath.FromSlash(dir), "reasoned.go")
	src, err := os.ReadFile(goFile)
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, text := range strings.Split(string(src), "\n") {
		if strings.TrimSpace(text) == "return 42" {
			line = i + 1
		}
	}
	if line == 0 {
		t.Fatal("fixture lost its ignored line")
	}
	workflow := filepath.Join(l.Root, ".github", "workflows", "ci.yml")
	probe := &Analyzer{Name: "probe", Doc: "reports two Finish findings", Run: func(*Pass) {}}
	probe.Finish = func(_ *Loader, report func(Diagnostic)) {
		report(Diagnostic{Analyzer: "probe", File: goFile, Line: line, Col: 2, Message: "on an ignored Go line"})
		report(Diagnostic{Analyzer: "probe", File: workflow, Line: line, Col: 1, Message: "on a workflow"})
	}
	res := Run(l, pkgs, []*Analyzer{probe})
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].File != ".github/workflows/ci.yml" {
		t.Errorf("diagnostics = %v, want only the workflow finding", res.Diagnostics)
	}
}

// TestIgnoreMissingReason checks the driver-level rule that a
// reasonless //xbarvet:ignore is itself a finding, reported under the
// synthetic analyzer name "xbarvet". (A want comment cannot share the
// directive's line — its text would become the directive's reason — so
// this test asserts directly.)
func TestIgnoreMissingReason(t *testing.T) {
	res := runOn(t, "", fixtureDir("ignore", "noreason"))
	if len(res.Diagnostics) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(res.Diagnostics), res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Analyzer != "xbarvet" {
		t.Errorf("Analyzer = %q, want %q", d.Analyzer, "xbarvet")
	}
	if !strings.Contains(d.Message, "missing a reason") {
		t.Errorf("Message = %q, want it to mention a missing reason", d.Message)
	}
	if want := fixtureDir("ignore", "noreason") + "/noreason.go"; d.File != want {
		t.Errorf("File = %q, want %q", d.File, want)
	}
}

// TestResultJSONSchema pins the -json output shape tooling consumers
// parse: top-level keys and the per-diagnostic fields, with
// module-root-relative slash paths.
func TestResultJSONSchema(t *testing.T) {
	res := runOn(t, "depguard", fixtureDir("depguard", "badcli"))
	raw, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"module", "analyzers", "packages", "diagnostics", "suppressed"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON output missing top-level key %q", key)
		}
	}
	if decoded["module"] != "nanoxbar" {
		t.Errorf("module = %v, want nanoxbar", decoded["module"])
	}
	diags, ok := decoded["diagnostics"].([]any)
	if !ok || len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want a one-element array", decoded["diagnostics"])
	}
	d, ok := diags[0].(map[string]any)
	if !ok {
		t.Fatalf("diagnostic is %T, want an object", diags[0])
	}
	for _, key := range []string{"analyzer", "package", "file", "line", "col", "message"} {
		if _, ok := d[key]; !ok {
			t.Errorf("diagnostic missing key %q", key)
		}
	}
	file, _ := d["file"].(string)
	if !strings.HasPrefix(file, "internal/analysis/testdata/") || strings.Contains(file, "\\") {
		t.Errorf("file = %q, want a module-root-relative slash path", file)
	}
	if d["analyzer"] != "depguard" {
		t.Errorf("analyzer = %v, want depguard", d["analyzer"])
	}
}
