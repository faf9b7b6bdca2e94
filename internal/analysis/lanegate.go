package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// benchName matches Go benchmark identifiers — Benchmark followed by an
// exported-style name. The uppercase requirement keeps prose words like
// "benchmarks" out of workflow-file scans.
var benchName = regexp.MustCompile(`Benchmark[A-Z][A-Za-z0-9_]*`)

// benchDecl matches a benchmark declaration line in a _test.go file.
var benchDecl = regexp.MustCompile(`(?m)^func (Benchmark[A-Z][A-Za-z0-9_]*)\s*\(`)

// newLaneGate verifies the CI perf gates stay anchored to real code:
// every benchmark named in a .github/workflows file — bench regexes and
// the comments explaining them — must exist as a declared benchmark
// somewhere in the module. A rename that forgets the workflow would
// otherwise leave the bench-smoke step matching nothing and pass
// forever; this is the regression the lane64 yield gate is specifically
// exposed to, hence the name.
func newLaneGate() *Analyzer {
	a := &Analyzer{
		Name: "lanegate",
		Doc:  "every benchmark named in a CI workflow file is declared in the module",
	}
	a.Run = func(*Pass) {}
	a.Finish = func(l *Loader, report func(Diagnostic)) {
		declared := declaredBenchmarks(l.Root)
		dir := filepath.Join(l.Root, ".github", "workflows")
		entries, err := os.ReadDir(dir)
		if err != nil {
			return // no workflows, nothing to gate
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || (!strings.HasSuffix(name, ".yml") && !strings.HasSuffix(name, ".yaml")) {
				continue
			}
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			for li, line := range strings.Split(string(data), "\n") {
				for _, loc := range benchName.FindAllStringIndex(line, -1) {
					bench := line[loc[0]:loc[1]]
					if declared[bench] {
						continue
					}
					report(Diagnostic{
						Analyzer: a.Name,
						File:     path,
						Line:     li + 1,
						Col:      loc[0] + 1,
						Message:  "workflow names benchmark " + bench + " but no _test.go file declares it",
					})
				}
			}
		}
	}
	return a
}

// declaredBenchmarks collects every `func BenchmarkXxx(` declared in
// _test.go files under root, walking the tree directly: the loader
// deliberately skips test files, and the gate must see benchmarks
// wherever they live. Hidden, underscore-prefixed, testdata, and vendor
// directories are skipped, mirroring the go tool's matching rules.
func declaredBenchmarks(root string) map[string]bool {
	decls := map[string]bool{}
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		for _, m := range benchDecl.FindAllStringSubmatch(string(data), -1) {
			decls[m[1]] = true
		}
		return nil
	})
	return decls
}
