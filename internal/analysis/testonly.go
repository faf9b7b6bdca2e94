package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// testOnlyDecl is one exported declaration the testonly analyzer
// checks for a production reference.
type testOnlyDecl struct {
	pkg  *Package
	id   *ast.Ident      // the declared name; a finding anchors here
	node ast.Node        // the whole declaration; uses inside it are self-references
	recv *types.TypeName // a method's receiver type, else nil
	kind string
	name string
}

// newTestOnly keeps production code to what production calls: it
// reports every exported function, type, variable, constant or method
// declared under the module's internal/ and pkg/ trees that no non-test
// file references. The loader never parses _test.go files, so every use
// it records is a production use; bench/, examples/ and the commands
// load with the module and count as callers, so the SDK is what they
// call. A declaration's references to itself (recursion, a type naming
// itself, a method's receiver) do not count. Methods that satisfy an
// interface are never findings: they are called through it
// (fmt.Stringer, error, http.Handler, ...). Deliberate test seams that
// Go gives no test-file home — code another package's tests call —
// carry a reasoned //xbarvet:ignore.
//
// The verdict needs every caller, so a load smaller than the whole
// module reports nothing.
func newTestOnly() *Analyzer {
	a := &Analyzer{
		Name: "testonly",
		Doc:  "every exported internal/ and pkg/ declaration is referenced by a non-test file",
	}
	var pkgs []*Package
	a.Run = func(pass *Pass) { pkgs = append(pkgs, pass.Pkg) }
	a.Finish = func(l *Loader, report func(Diagnostic)) {
		if !wholeModule(l, pkgs) {
			return
		}
		decls := make(map[types.Object]testOnlyDecl)
		receivers := make(map[*ast.Ident]bool)
		for _, pkg := range pkgs {
			if !hasPathPrefix(pkg.Path, l.Module+"/internal") && !hasPathPrefix(pkg.Path, l.Module+"/pkg") {
				continue
			}
			for _, f := range pkg.Files {
				collectExported(pkg, f, decls, receivers)
			}
		}
		used := make(map[types.Object]bool)
		for _, pkg := range pkgs {
			for id, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin() // a method of an instantiated generic type
				}
				d, ok := decls[obj]
				if !ok || receivers[id] || (id.Pos() >= d.node.Pos() && id.Pos() < d.node.End()) {
					continue
				}
				used[obj] = true
			}
		}
		var ifaces map[string][]*types.Interface
		for obj, d := range decls {
			if used[obj] {
				continue
			}
			if d.recv != nil {
				if ifaces == nil {
					ifaces = interfacesByMethod(pkgs)
				}
				if satisfiesInterface(d.recv.Type(), ifaces[obj.Name()]) {
					continue
				}
			}
			pos := d.pkg.Fset.Position(d.id.Pos())
			report(Diagnostic{
				Analyzer: a.Name,
				Package:  d.pkg.ScopePath,
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  "exported " + d.kind + " " + d.name + " is referenced by no non-test file",
			})
		}
	}
	return a
}

// wholeModule reports whether pkgs hold every package of the module
// rooted at l.Root, as a ./... load would find them.
func wholeModule(l *Loader, pkgs []*Package) bool {
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Dir] = true
	}
	dirs, err := packageDirs(l.Root)
	if err != nil {
		return false
	}
	for _, dir := range dirs {
		if !loaded[dir] {
			return false
		}
	}
	return true
}

// collectExported records f's exported top-level declarations and the
// receiver type names of its methods.
func collectExported(pkg *Package, f *ast.File, decls map[types.Object]testOnlyDecl, receivers map[*ast.Ident]bool) {
	add := func(id *ast.Ident, node ast.Node, recv *types.TypeName, kind, name string) {
		if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() {
			decls[obj] = testOnlyDecl{pkg: pkg, id: id, node: node, recv: recv, kind: kind, name: name}
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(decl.Name, decl, nil, "function", decl.Name.Name)
				continue
			}
			recv := receiverIdent(decl.Recv.List[0].Type)
			tn, ok := pkg.Info.Uses[recv].(*types.TypeName)
			if !ok {
				continue
			}
			receivers[recv] = true
			add(decl.Name, decl, tn, "method", recv.Name+"."+decl.Name.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, spec, nil, "type", spec.Name.Name)
				case *ast.ValueSpec:
					kind := "variable"
					if decl.Tok == token.CONST {
						kind = "constant"
					}
					for _, id := range spec.Names {
						add(id, spec, nil, kind, id.Name)
					}
				}
			}
		}
	}
}

// receiverIdent digs the type name out of a method receiver: T, *T,
// T[P] or *T[P].
func receiverIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// errorsProtocol is the set of unnamed interfaces package errors
// asserts inside its function bodies, which the source importer does
// not expose: errors.Is, As and Unwrap call these methods dynamically.
const errorsProtocol = `package p
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`

// interfacesByMethod indexes, by method name, every interface a method
// could be called through: the universe's error, package errors'
// unnamed protocol, every interface declared in a loaded package or
// anything it imports (the standard library's fmt.Stringer,
// json.Marshaler, http.Handler, ...), and every interface type the
// loaded code spells out.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > named.TypeArgs().Len() {
			return // uninstantiated generic: Implements is unspecified
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	fset := token.NewFileSet()
	f, _ := parser.ParseFile(fset, "errors.go", errorsProtocol, 0)
	proto, _ := (&types.Config{}).Check("p", fset, []*ast.File{f}, nil)
	for _, name := range proto.Scope().Names() {
		add(proto.Scope().Lookup(name).Type())
	}
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

// satisfiesInterface reports whether T or *T implements any of ifaces.
func satisfiesInterface(t types.Type, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}
