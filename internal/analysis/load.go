package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Dir is the package directory, absolute.
	Dir string
	// Path is the import path derived from the module layout (synthetic
	// for testdata fixture packages, which nothing imports).
	Path string
	// ScopePath is the path analyzers use for applicability decisions.
	// It equals Path unless a file carries a //xbarvet:pkgpath
	// directive — fixture packages masquerade as the real package they
	// exercise (e.g. a testdata package declaring itself
	// nanoxbar/internal/defect so seededrand treats it as in scope).
	ScopePath string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
	// TypeErrors collects type-check problems without aborting the
	// load; the driver surfaces them so a broken load cannot silently
	// turn into a clean report.
	TypeErrors []error

	// ignores maps file -> line -> suppression, from //xbarvet:ignore
	// directives. A directive suppresses diagnostics on its own line
	// and, when it stands alone on a line, on the following line.
	ignores map[string]map[int]ignoreDirective
}

// ignoreDirective is one parsed //xbarvet:ignore comment.
type ignoreDirective struct {
	reason     string
	standalone bool // the directive is the only thing on its line
	pos        token.Pos
}

// suppressed reports whether a diagnostic at (file, line) is covered by
// an ignore directive with a reason.
func (p *Package) suppressed(file string, line int) bool {
	byLine := p.ignores[file]
	if byLine == nil {
		return false
	}
	if d, ok := byLine[line]; ok && d.reason != "" {
		return true
	}
	if d, ok := byLine[line-1]; ok && d.reason != "" && d.standalone {
		return true
	}
	return false
}

// Loader parses and type-checks packages of the enclosing module. It is
// stdlib-only: module-internal imports resolve through the loader's own
// cache and everything else through go/importer's source-mode importer,
// which type-checks the standard library from GOROOT sources (no build
// cache or export data needed). Results are memoized per import path,
// so a whole-module load type-checks each package exactly once.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

// buildContextOnce pins go/build to a CGO-disabled context before the
// source importer captures it: the pure-Go variants of net and friends
// type-check identically everywhere, while the cgo variants depend on
// the host toolchain.
var buildContextOnce sync.Once

// NewLoader locates the module enclosing startDir ("" = current
// directory) and returns a loader rooted there.
func NewLoader(startDir string) (*Loader, error) {
	if startDir == "" {
		startDir = "."
	}
	root, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", startDir)
		}
		root = parent
	}
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(modData), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	buildContextOnce.Do(func() { build.Default.CgoEnabled = false })
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*Package),
	}, nil
}

// Load resolves patterns into packages. A pattern is a module-root-
// relative directory ("internal/engine", "./cmd/xbarvet") or a
// recursive form ending in "/..." ("./...", "internal/..."). Recursive
// walks skip testdata, hidden, and underscore directories — fixture
// packages load only when named explicitly. Results are sorted by
// import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !recursive {
			dirs[base] = true
			continue
		}
		found, err := packageDirs(base)
		if err != nil {
			return nil, fmt.Errorf("analysis: walking %s: %w", pat, err)
		}
		for _, dir := range found {
			dirs[dir] = true
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// packageDirs lists the package directories at or below base: those
// holding a non-test .go file, skipping testdata, hidden, and
// underscore directories below base.
func packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir contains at least one non-test .go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if goSource(e) {
			return true
		}
	}
	return false
}

func goSource(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir, memoized by import
// path.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.cache[path] = nil // cycle marker while checking

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Dir:     dir,
		Path:    path,
		Fset:    l.fset,
		ignores: make(map[string]map[int]ignoreDirective),
	}
	for _, e := range entries {
		if !goSource(e) {
			continue
		}
		fp := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fp)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, fp, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		l.scanDirectives(pkg, f, src)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	if pkg.ScopePath == "" {
		pkg.ScopePath = path
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if incomplete) package even on errors;
	// the collected TypeErrors carry the details.
	pkg.Types, _ = conf.Check(path, l.fset, pkg.Files, pkg.Info)
	l.cache[path] = pkg
	return pkg, nil
}

// scanDirectives records //xbarvet:ignore and //xbarvet:pkgpath
// comments. src is the file's exact source, used to tell a standalone
// directive line from a trailing comment.
func (l *Loader) scanDirectives(pkg *Package, f *ast.File, src []byte) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//xbarvet:")
			if !ok {
				continue
			}
			pos := l.fset.Position(c.Pos())
			switch {
			case strings.HasPrefix(text, "pkgpath"):
				pkg.ScopePath = strings.TrimSpace(strings.TrimPrefix(text, "pkgpath"))
			case strings.HasPrefix(text, "ignore"):
				byLine := pkg.ignores[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]ignoreDirective)
					pkg.ignores[pos.Filename] = byLine
				}
				byLine[pos.Line] = ignoreDirective{
					reason:     strings.TrimSpace(strings.TrimPrefix(text, "ignore")),
					standalone: onlyWhitespaceBefore(src, pos.Offset),
					pos:        c.Pos(),
				}
			}
		}
	}
}

// onlyWhitespaceBefore reports whether everything between offset and
// the preceding newline is whitespace.
func onlyWhitespaceBefore(src []byte, offset int) bool {
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

// loaderImporter adapts the loader as the types.Importer used during
// checking: module-internal paths recurse into the loader's own cache,
// everything else goes to the source-mode standard-library importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module)))
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: type-checking %s failed", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
