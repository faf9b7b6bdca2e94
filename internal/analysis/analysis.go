// Package analysis is the project-invariant static-analysis framework
// behind cmd/xbarvet. The repo's correctness story rests on conventions
// that ordinary tests cannot see — deterministic seeded RNG streams,
// injected clocks, the apierr error taxonomy, metric-name hygiene, the
// SDK-only import rule for examples — and this package turns each of
// them into an executable analyzer over go/ast + go/types, so a
// violation is a build failure, not a code-review catch.
//
// The pieces:
//
//   - Loader (load.go): parses and type-checks module packages with a
//     module-aware source importer, so analyzers get full types.Info
//     without any dependency outside the standard library.
//   - Analyzer / Pass / Diagnostic (this file): the per-package
//     analysis contract, modeled on golang.org/x/tools/go/analysis but
//     small enough to own.
//   - Run (run.go): drives every analyzer over every loaded package,
//     applies //xbarvet:ignore suppressions, and renders the result as
//     text or JSON.
//   - The eight project analyzers (one file each): depguard,
//     clockdiscipline, seededrand, metricnames, errtaxonomy, ctxfirst,
//     lanegate, testonly.
//
// Fixture packages under testdata/src carry `// want "regexp"`
// expectation comments; harness_test.go diffs reported diagnostics
// against them, so each analyzer has a test that fails if its check is
// disabled.
package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Diagnostic is one finding: an analyzer, a position, and a message.
// File is module-root-relative so output (and JSON golden tests) are
// stable across checkouts.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Analyzers may carry cross-package
// state (the metric duplicate-name check does), so Analyzers() returns
// fresh instances per run rather than shared globals.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-line invariant statement shown by xbarvet -list.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Finish, if non-nil, runs once after every package pass — the hook
	// for whole-module invariants: ones that need every package at once
	// (test-only declarations) or live outside loaded Go packages (CI
	// workflow files). Run filters its findings like per-package ones:
	// a finding anchored on a line of a loaded Go file honours that
	// file's //xbarvet:ignore directives, while one anchored in a file
	// the loader never parsed is always reported.
	Finish func(l *Loader, report func(Diagnostic))
}

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.Pkg.ScopePath,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns a fresh instance of every project analyzer, in the
// order they run.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		newDepguard(),
		newClockDiscipline(),
		newSeededRand(),
		newMetricNames(),
		newErrTaxonomy(),
		newCtxFirst(),
		newLaneGate(),
		newTestOnly(),
	}
}

// pkgPathOf resolves an identifier used as a package qualifier to the
// imported package's path, or "" when the identifier is anything else
// (including a local shadowing the import name — the types.Info lookup,
// not the spelling, decides).
func pkgPathOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// qualifiedName matches expressions of the form pkg.Name where pkg is
// an import of pkgPath, returning the selected name.
func qualifiedName(info *types.Info, e ast.Expr, pkgPath string) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkgPathOf(info, id) != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// isNamedType reports whether t (after pointer stripping) is the named
// type path.name.
func isNamedType(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// constString evaluates e as a compile-time string constant.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// hasPathPrefix reports whether path is prefix itself or a package
// below it (prefix "a/b" matches "a/b" and "a/b/c", not "a/bc").
func hasPathPrefix(path, prefix string) bool {
	if path == prefix {
		return true
	}
	return len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/'
}
