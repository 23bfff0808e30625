// Package unusedexport reports exported functions, methods and types that no
// non-test file in the load set references (DESIGN.md §8). It keeps "least
// code" enforceable: an export that no study, command or example reaches is
// either deleted or kept with a //lint:ignore unusedexport <reason>.
//
// A reference is any use of the declared object from a non-test file of any
// loaded package, the declaring package included; cmd/ and examples/ count.
// A method also counts as referenced when its type satisfies an interface
// the program names (a type, parameter, result or field of interface type
// used anywhere in non-test code), or error or fmt.Stringer, which fmt and
// errors consult dynamically: a call through the interface reaches it.
// That makes the interface's own methods the ones to check: an exported
// method of an interface the load set declares is reported when no
// non-test selector uses it, since then no call through the interface
// reaches any implementation either.
//
// The findings of one package depend on its importers, not just on its own
// dependency cone, so the analyzer is only sound over a whole-module load —
// which is the only load lint.Audit makes.
package unusedexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "unusedexport",
	Doc: "report exported funcs, methods and types that no non-test file " +
		"in the load set references",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	var refs map[string]bool
	if pass.Program == nil {
		// Single-package driver (analysistest): the package is the program.
		refs = references([]*analysis.PackageInfo{{
			ImportPath: pass.Pkg.Path(),
			Fset:       pass.Fset,
			Files:      pass.Files,
			Pkg:        pass.Pkg,
			Info:       pass.TypesInfo,
		}})
	} else {
		refs = pass.Program.Memo("unusedexport.refs", func() any {
			return references(pass.Program.Packages)
		}).(map[string]bool)
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil || !fn.Exported() {
					continue
				}
				key := dataflow.KeyOf(fn)
				if refs[key] {
					continue
				}
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				pass.Reportf(d.Name.Pos(), "exported %s %s is referenced by no non-test file",
					kind, strings.TrimPrefix(key, fn.Pkg().Path()+"."))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
					if tn == nil {
						continue
					}
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						reportInterfaceMethods(pass, refs, tn, it)
					}
					if !tn.Exported() || refs[typeKey(tn)] {
						continue
					}
					pass.Reportf(ts.Name.Pos(), "exported type %s is referenced by no non-test file", tn.Name())
				}
			}
		}
	}
	return nil, nil
}

// reportInterfaceMethods reports the exported methods declared in the
// interface type tn that no non-test file uses. The use of an interface
// method is a selector on an interface (or type-parameter) value, which
// type-checks to the method declared here.
func reportInterfaceMethods(pass *analysis.Pass, refs map[string]bool, tn *types.TypeName, it *ast.InterfaceType) {
	for _, field := range it.Methods.List {
		for _, name := range field.Names {
			fn, _ := pass.TypesInfo.Defs[name].(*types.Func)
			if fn == nil || !fn.Exported() || refs[dataflow.KeyOf(fn)] {
				continue
			}
			pass.Reportf(name.Pos(), "exported interface method %s.%s is called by no non-test file", tn.Name(), fn.Name())
		}
	}
}

// references builds the set of canonical keys (dataflow.KeyOf for funcs and
// methods, typeKey for types) that non-test files of pkgs reference, plus
// every method that satisfies an interface those files name.
func references(pkgs []*analysis.PackageInfo) map[string]bool {
	refs := map[string]bool{}
	ifaces := newIfaceSet()
	var declared []*types.Named
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			recvs := map[*ast.FieldList]bool{}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					recvs[fd.Recv] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FieldList); ok && recvs[fl] {
					return false // a receiver declares a method, it does not use its type
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if tn, ok := pkg.Info.Defs[id].(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
						declared = append(declared, named)
					}
					return true
				}
				obj := pkg.Info.Uses[id]
				switch obj := obj.(type) {
				case *types.Func:
					refs[dataflow.KeyOf(obj.Origin())] = true
				case *types.TypeName:
					refs[typeKey(obj)] = true
				}
				if obj != nil {
					ifaces.collect(obj.Type())
				}
				return true
			})
		}
	}
	for _, t := range declared {
		ms := types.NewMethodSet(types.NewPointer(t))
		for _, it := range ifaces.list {
			if !satisfies(ms, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				refs[dataflow.KeyOf(ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func))] = true
			}
		}
	}
	return refs
}

// ifaceSet collects the non-empty interface types the program names,
// deduplicated by their package-path-qualified spelling (each package sees
// its imports through its own type-checker, so pointers differ).
type ifaceSet struct {
	seen map[string]bool
	list []*types.Interface
}

func newIfaceSet() *ifaceSet {
	s := &ifaceSet{seen: map[string]bool{}}
	// Consulted by fmt and errors through type assertions on any values.
	s.collect(types.Universe.Lookup("error").Type())
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	s.collect(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete())
	return s
}

// collect adds the interfaces t is or carries through pointers, containers
// and signatures. It does not descend into named non-interface types: their
// fields count only where the program uses them.
func (s *ifaceSet) collect(t types.Type) {
	switch t := t.(type) {
	case *types.Named, *types.Alias:
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		s.add(t, it)
	case *types.Interface:
		s.add(t, t)
	case *types.Map:
		s.collect(t.Key())
		s.collect(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		s.collect(t.Elem())
	case *types.Signature:
		s.collect(t.Params())
		s.collect(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.collect(t.At(i).Type())
		}
	}
}

func (s *ifaceSet) add(t types.Type, it *types.Interface) {
	if it.NumMethods() == 0 {
		return
	}
	key := types.TypeString(t, qualifier)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.list = append(s.list, it)
}

// satisfies reports whether the method set ms has every method of it with
// an identical signature, compared by sigKey.
func satisfies(ms *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigKey(sel.Obj().Type().(*types.Signature)) != sigKey(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sigKey spells a signature's parameter and result types without their
// names, which differ between an interface and its implementations.
func sigKey(sig *types.Signature) string {
	key := ""
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		key += "("
		for i := 0; i < tup.Len(); i++ {
			key += types.TypeString(tup.At(i).Type(), qualifier) + ","
		}
		key += ")"
	}
	if sig.Variadic() {
		key += "..."
	}
	return key
}

func qualifier(p *types.Package) string { return p.Path() }

// typeKey is the canonical name of a package-level type, in dataflow.KeyOf's
// "pkg/path.Name" form.
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}
