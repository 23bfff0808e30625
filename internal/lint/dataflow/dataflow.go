// Package dataflow is the interprocedural layer of the lint suite
// (DESIGN.md §8): a call-graph index over the whole load set, a
// per-function summary store, and a small forward taint/escape propagation
// engine. It is itself an analyzer — clients such as seedflow, detmerge,
// and hotescape list it in Requires and receive a *Result in
// Pass.ResultOf — but it reports nothing on its own.
//
// Scope and soundness. The engine resolves only static calls (declared
// functions and methods, through the type-checker, so aliases and dot
// imports cannot evade it). Calls through function values, interface
// methods, and packages outside the load set fall back to conservative
// defaults chosen per client: summaries are optimistic on recursion so a
// cycle never manufactures a finding. Every client reports diagnostics
// only in the package under analysis, and its summaries consult only the
// package's dependency cone, so a package's findings never depend on its
// callers.
package dataflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer builds the whole-program index once per driver run and hands
// each client pass a *Result. It requires Pass.Program.
var Analyzer = &analysis.Analyzer{
	Name: "dataflow",
	Doc: "interprocedural call-graph and summary index consumed by " +
		"seedflow, detmerge, and hotescape (reports nothing itself)",
	Run: run,
}

// Result is what a requiring analyzer receives: the shared program index
// plus the package the pass is looking at.
type Result struct {
	// Index is the whole-program function index, built once per run and
	// read-only thereafter.
	Index *Index
	// Pkg is the current package, as a PackageInfo compatible with Index
	// lookups.
	Pkg *analysis.PackageInfo
}

func run(pass *analysis.Pass) (any, error) {
	pkg := &analysis.PackageInfo{
		ImportPath: pass.Pkg.Path(),
		Fset:       pass.Fset,
		Files:      pass.Files,
		Pkg:        pass.Pkg,
		Info:       pass.TypesInfo,
	}
	if pass.Program == nil {
		// Single-package driver (analysistest): index just this package.
		return &Result{Index: BuildIndex([]*analysis.PackageInfo{pkg}), Pkg: pkg}, nil
	}
	idx := pass.Program.Memo("dataflow.index", func() any {
		return BuildIndex(pass.Program.Packages)
	}).(*Index)
	return &Result{Index: idx, Pkg: pkg}, nil
}

// Func is one declared function or method in the load set.
type Func struct {
	// Key is the canonical name, as produced by KeyOf.
	Key string
	// Decl is the declaration, body included (nil body for externally
	// implemented functions).
	Decl *ast.FuncDecl
	// Pkg is the package that declares the function; its Fset and Info
	// resolve everything inside Decl.
	Pkg *analysis.PackageInfo
}

// Index maps canonical function keys to their declarations across every
// package in the load set. It is immutable once built.
type Index struct {
	funcs   map[string]*Func
	byDecl  map[*ast.FuncDecl]*Func
	hasBody map[string]bool
}

// BuildIndex walks every package's declarations. Later packages never
// overwrite earlier ones: each function is declared in exactly one package,
// and the merged in-package test variant is the only entry for its path.
func BuildIndex(pkgs []*analysis.PackageInfo) *Index {
	idx := &Index{
		funcs:   map[string]*Func{},
		byDecl:  map[*ast.FuncDecl]*Func{},
		hasBody: map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := KeyOf(obj)
				if _, dup := idx.funcs[key]; dup {
					continue
				}
				fn := &Func{Key: key, Decl: fd, Pkg: pkg}
				idx.funcs[key] = fn
				idx.byDecl[fd] = fn
				idx.hasBody[key] = true
			}
		}
	}
	return idx
}

// Lookup returns the function with the given canonical key, or nil if it is
// outside the load set (stdlib, interface method, function value).
func (idx *Index) Lookup(key string) *Func { return idx.funcs[key] }

// ByDecl returns the indexed function for a declaration in the load set.
func (idx *Index) ByDecl(fd *ast.FuncDecl) *Func { return idx.byDecl[fd] }

// KeyOf canonicalises a *types.Func so that the same function seen from
// different importing packages (each type-checks its imports independently
// from export data, so object pointers differ) maps to one key. Methods
// normalise away the pointer receiver: "pkg/path.Type.Method"; functions
// are "pkg/path.Name".
func KeyOf(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pathOf(n.Obj().Pkg()) + "." + n.Obj().Name() + "." + fn.Name()
		}
		// Interface methods and other unnamed receivers: fall back to the
		// verbose form; these never match an Index entry, which is the
		// conservative outcome the engine wants.
		return fn.FullName()
	}
	return pathOf(fn.Pkg()) + "." + fn.Name()
}

func pathOf(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	return pkg.Path()
}

// Callee resolves the declared function or method a call invokes, or nil
// for builtins, conversions, function values, and interface dispatch.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fn.X.(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// recvExpr returns the receiver expression of a method call (x in x.M(...)),
// or nil for plain calls.
func recvExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}
