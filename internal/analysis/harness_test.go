package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is one loader for the whole test binary: the source
// importer type-checks each stdlib package once, so fixture loads after
// the first are cheap.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// fixtureDir names a fixture package directory, module-root-relative.
func fixtureDir(analyzer, sub string) string {
	return "internal/analysis/testdata/src/" + analyzer + "/" + sub
}

// runOn loads the fixture dirs and runs the named analyzer (all of them
// when name is "") over the result.
func runOn(t *testing.T, name string, dirs ...string) Result {
	t.Helper()
	var as []*Analyzer
	for _, a := range Analyzers() {
		if name == "" || a.Name == name {
			as = append(as, a)
		}
	}
	if len(as) == 0 {
		t.Fatalf("no analyzer named %q in Analyzers()", name)
	}
	return runWith(t, loader(t), as, dirs...)
}

// runWith loads patterns through l and runs analyzers over them.
// Fixtures must type-check: a fixture that does not compile would let
// every analyzer pass vacuously.
func runWith(t *testing.T, l *Loader, analyzers []*Analyzer, patterns ...string) Result {
	t.Helper()
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	res := Run(l, pkgs, analyzers)
	if len(res.TypeErrors) > 0 {
		t.Fatalf("fixture type errors: %v", res.TypeErrors)
	}
	return res
}

// want is one `// want "regexp"` expectation parsed from a fixture.
type want struct {
	key     string // file:line
	re      *regexp.Regexp
	matched bool
}

// wantArgRe extracts the quoted arguments of a want comment; both
// interpreted and raw (backquoted) Go string forms are accepted.
var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// parseWants collects the want expectations from every fixture file in
// dirs, keyed the way diagnostics are positioned: module-root-relative
// slash path and line number.
func parseWants(t *testing.T, dirs ...string) []*want {
	t.Helper()
	l := loader(t)
	var wants []*want
	for _, dir := range dirs {
		abs := filepath.Join(l.Root, filepath.FromSlash(dir))
		entries, err := os.ReadDir(abs)
		if err != nil {
			t.Fatalf("reading fixture dir %s: %v", dir, err)
		}
		for _, e := range entries {
			if !goSource(e) {
				continue
			}
			data, err := os.ReadFile(filepath.Join(abs, e.Name()))
			if err != nil {
				t.Fatalf("reading fixture %s: %v", e.Name(), err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				_, rest, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				args := wantArgRe.FindAllString(rest, -1)
				if len(args) == 0 {
					t.Fatalf("%s/%s:%d: want comment with no quoted regexp", dir, e.Name(), i+1)
				}
				for _, arg := range args {
					pat, err := strconv.Unquote(arg)
					if err != nil {
						t.Fatalf("%s/%s:%d: unquoting %s: %v", dir, e.Name(), i+1, arg, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s/%s:%d: compiling %q: %v", dir, e.Name(), i+1, pat, err)
					}
					wants = append(wants, &want{
						key: fmt.Sprintf("%s/%s:%d", dir, e.Name(), i+1),
						re:  re,
					})
				}
			}
		}
	}
	return wants
}

// checkWants diffs the run's diagnostics against the fixtures' want
// comments: every diagnostic must match an expectation at its exact
// file and line, and every expectation must be consumed — so a disabled
// or broken analyzer fails the test from both directions.
func checkWants(t *testing.T, res Result, dirs ...string) {
	t.Helper()
	wants := parseWants(t, dirs...)
	byKey := make(map[string][]*want)
	for _, w := range wants {
		byKey[w.key] = append(byKey[w.key], w)
	}
	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := false
		for _, w := range byKey[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("expected diagnostic not reported at %s: %s", w.key, w.re)
		}
	}
}
