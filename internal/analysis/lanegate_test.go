package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes path→content files under a fresh temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLaneGate(root string) []Diagnostic {
	var got []Diagnostic
	newLaneGate().Finish(&Loader{Root: root, Module: "m"}, func(d Diagnostic) {
		got = append(got, d)
	})
	return got
}

func TestLaneGateFlagsMissingBenchmarks(t *testing.T) {
	root := writeTree(t, map[string]string{
		".github/workflows/ci.yml": strings.Join([]string{
			"# the gate regex matches BenchmarkReal and BenchmarkGone",
			"run: go test -bench 'BenchmarkReal|BenchmarkGone'",
		}, "\n"),
		"pkg/a/a_test.go": "package a\n\nfunc BenchmarkReal(b *testing.B) {}\n",
	})
	got := runLaneGate(root)
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (comment + gate line): %v", len(got), got)
	}
	for _, d := range got {
		if d.Analyzer != "lanegate" || !strings.Contains(d.Message, "BenchmarkGone") {
			t.Fatalf("unexpected diagnostic %v", d)
		}
	}
	if got[0].Line != 1 || got[1].Line != 2 {
		t.Fatalf("diagnostic lines %d/%d, want 1/2", got[0].Line, got[1].Line)
	}
}

func TestLaneGateCleanWhenAllDeclared(t *testing.T) {
	root := writeTree(t, map[string]string{
		".github/workflows/ci.yml": "run: go test -bench 'BenchmarkA|BenchmarkB'\n",
		"a_test.go":                "package m\n\nfunc BenchmarkA(b *testing.B) {}\nfunc BenchmarkB(b *testing.B) {}\n",
	})
	if got := runLaneGate(root); len(got) != 0 {
		t.Fatalf("clean tree reported %v", got)
	}
}

func TestLaneGateIgnoresProseAndHiddenDirs(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Lowercase continuation ("benchmarks", "benchmarking") must not
		// parse as a benchmark name.
		".github/workflows/ci.yml": "# run the benchmarks; Benchmarking is lowercase-continued\nrun: go test -bench 'BenchmarkHidden'\n",
		// Declarations inside testdata or hidden dirs do not count.
		"testdata/x_test.go": "package x\n\nfunc BenchmarkHidden(b *testing.B) {}\n",
	})
	got := runLaneGate(root)
	if len(got) != 1 || !strings.Contains(got[0].Message, "BenchmarkHidden") {
		t.Fatalf("got %v, want exactly one BenchmarkHidden finding", got)
	}
}

func TestLaneGateNoWorkflowsIsClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a_test.go": "package m\n\nfunc BenchmarkA(b *testing.B) {}\n",
	})
	if got := runLaneGate(root); len(got) != 0 {
		t.Fatalf("tree without workflows reported %v", got)
	}
}

// TestLaneGateLiveRepo runs the gate over this repository itself: the
// CI workflow must only name benchmarks that exist.
func TestLaneGateLiveRepo(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, ".github", "workflows")); err != nil {
		t.Skip("no workflows in checkout")
	}
	if got := runLaneGate(root); len(got) != 0 {
		t.Fatalf("live CI workflow names undeclared benchmarks: %v", got)
	}
}
