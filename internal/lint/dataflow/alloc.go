package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocSite is one allocation in a function body: a make, a growing
// append, or an interface boxing (a concrete value converted to an
// interface allocates unless the compiler proves otherwise).
type AllocSite struct {
	// Position is fully resolved — sites cross package (and FileSet)
	// boundaries, so a raw token.Pos would be useless to the reporter.
	Position token.Position
	// Pos is the raw position, meaningful only against the FileSet of the
	// package declaring Fn (reporters use it for sites in their own package).
	Pos token.Pos
	// Kind is "make", "append", or "interface boxing".
	Kind string
	// Fn is the function containing the site.
	Fn *Func
}

// Reached is an allocation site reachable from a function, with the static
// call chain that reaches it (outermost callee first).
type Reached struct {
	Site AllocSite
	Path []*Func
}

// AllocEngine computes summary-based allocation facts: per-function local
// sites (with a light escape check exempting provably-local constant-size
// makes, which the compiler stack-allocates) and the transitive sites
// reachable through static calls. Like Engine it is per-pass and not
// concurrency-safe.
type AllocEngine struct {
	Index *Index

	local map[string][]AllocSite
	reach map[string][]Reached
	busy  map[string]bool
}

// reachCap bounds how many witness sites a summary carries; one true
// finding per call site is what the reporter needs, not an exhaustive list.
const reachCap = 16

// NewAllocEngine wires an engine to the index.
func NewAllocEngine(idx *Index) *AllocEngine {
	return &AllocEngine{
		Index: idx,
		local: map[string][]AllocSite{},
		reach: map[string][]Reached{},
		busy:  map[string]bool{},
	}
}

// Reach returns the allocation sites transitively reachable from fn —
// fn's own plus everything behind its static calls, skipping callees that
// carry the //hot:path pragma themselves (hotescape polices those
// directly). Cycles resolve to the already-accumulated prefix.
func (e *AllocEngine) Reach(fn *Func) []Reached {
	if r, ok := e.reach[fn.Key]; ok {
		return r
	}
	if e.busy[fn.Key] {
		return nil
	}
	e.busy[fn.Key] = true
	defer func() { e.busy[fn.Key] = false }()

	var out []Reached
	for _, site := range e.Local(fn) {
		out = append(out, Reached{Site: site, Path: []*Func{fn}})
	}
	walkCalls(fn.Decl.Body, func(call *ast.CallExpr) {
		if len(out) >= reachCap {
			return
		}
		callee := Callee(fn.Pkg.Info, call)
		if callee == nil {
			return
		}
		target := e.Index.Lookup(KeyOf(callee))
		if target == nil || target == fn || IsHot(target.Decl) {
			return
		}
		for _, r := range e.Reach(target) {
			if len(out) >= reachCap {
				break
			}
			out = append(out, Reached{Site: r.Site, Path: append([]*Func{fn}, r.Path...)})
		}
	})
	e.reach[fn.Key] = out
	return out
}

// Local returns fn's own allocation sites after the escape exemption.
func (e *AllocEngine) Local(fn *Func) []AllocSite {
	if s, ok := e.local[fn.Key]; ok {
		return s
	}
	s := collectAllocs(fn)
	e.local[fn.Key] = s
	return s
}

// IsHot reports whether the declaration carries the //hot:path pragma
// (DESIGN.md §12) in its doc comment.
func IsHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//hot:path" {
			return true
		}
	}
	return false
}

// collectAllocs walks one body for make/append/boxing, exempting makes
// whose size arguments are compile-time constants and whose result never
// escapes the function — exactly the shape the compiler stack-allocates,
// so charging it to the hot path would be a false positive.
func collectAllocs(fn *Func) []AllocSite {
	info := fn.Pkg.Info
	fset := fn.Pkg.Fset
	var sites []AllocSite
	add := func(pos token.Pos, kind string) {
		sites = append(sites, AllocSite{Position: fset.Position(pos), Pos: pos, Kind: kind, Fn: fn})
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch bn := BuiltinName(info, n); {
			case bn == "make":
				if !exemptMake(fn, n) {
					add(n.Pos(), "make")
				}
			case bn == "append":
				add(n.Pos(), "append")
			case bn == "":
				boxedArgs(info, n, func(arg ast.Expr) { add(arg.Pos(), "interface boxing") })
			}
		case *ast.ReturnStmt:
			boxedReturns(fn, n, func(expr ast.Expr) { add(expr.Pos(), "interface boxing") })
		case *ast.AssignStmt:
			boxedAssigns(info, n, func(expr ast.Expr) { add(expr.Pos(), "interface boxing") })
		}
		return true
	})
	return sites
}

// BoxSites returns just the interface-boxing sites of fn's own body —
// hotescape polices make/append inside annotated functions without the
// escape exemption, so only the boxing dimension comes from here.
func (e *AllocEngine) BoxSites(fn *Func) []AllocSite {
	var out []AllocSite
	for _, s := range e.Local(fn) {
		if s.Kind == "interface boxing" {
			out = append(out, s)
		}
	}
	return out
}

// BuiltinName returns the name of the builtin a call invokes, or "".
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// exemptMake reports whether the make has constant size arguments and its
// result is bound to a single local variable that never escapes.
func exemptMake(fn *Func, call *ast.CallExpr) bool {
	info := fn.Pkg.Info
	for _, arg := range call.Args[1:] { // args[0] is the type
		if tv, ok := info.Types[arg]; !ok || tv.Value == nil {
			return false
		}
	}
	obj := makeTarget(fn, call)
	return obj != nil && !escapes(fn, obj)
}

// makeTarget finds the local variable the make's result is bound to via a
// simple `v := make(...)` / `var v = make(...)`, or nil for any other use.
func makeTarget(fn *Func, call *ast.CallExpr) *types.Var {
	info := fn.Pkg.Info
	var target *types.Var
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if ast.Unparen(rhs) == call && i < len(n.Lhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if v, ok := info.Defs[id].(*types.Var); ok {
							target = v
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				if ast.Unparen(rhs) == call && i < len(n.Names) {
					if v, ok := info.Defs[n.Names[i]].(*types.Var); ok {
						target = v
					}
				}
			}
		}
		return true
	})
	return target
}

// escapes reports whether obj can outlive the function: returned, sent,
// aliased, captured in a composite literal, passed to any call (except
// len/cap, which only read), or address-taken. Index reads/writes and
// ranging do not escape.
func escapes(fn *Func, obj *types.Var) bool {
	info := fn.Pkg.Info
	esc := false
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			esc = mentions(n)
		case *ast.SendStmt:
			esc = mentions(n)
		case *ast.CompositeLit:
			esc = mentions(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				esc = mentions(n)
			}
		case *ast.CallExpr:
			if b := BuiltinName(info, n); b == "len" || b == "cap" {
				return true
			}
			for _, arg := range n.Args {
				if mentions(arg) {
					esc = true
				}
			}
		case *ast.AssignStmt:
			// Aliasing: obj on the RHS of an assignment to something else.
			for _, rhs := range n.Rhs {
				if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
					continue // call args handled above
				}
				if mentions(rhs) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}

// boxedArgs reports arguments that convert a concrete value to an
// interface parameter — each such argument allocates at run time. Constant
// arguments, nils, and conversions into the error interface (cold error
// paths) are skipped.
func boxedArgs(info *types.Info, call *ast.CallExpr, report func(ast.Expr)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if callee := Callee(info, call); callee != nil && callee.Pkg() != nil {
		// Error construction is the cold path even inside hot functions;
		// boxing %v arguments there is noise, not a perf bug.
		if callee.Pkg().Path() == "fmt" && callee.Name() == "Errorf" {
			return
		}
		if callee.Pkg().Path() == "errors" {
			return
		}
	}
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np {
			break
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == np-1 && !call.Ellipsis.IsValid() {
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if boxesInto(info, arg, pt) {
			report(arg)
		}
	}
}

func boxedReturns(fn *Func, ret *ast.ReturnStmt, report func(ast.Expr)) {
	res := fn.Decl.Type.Results
	if res == nil || len(ret.Results) == 0 {
		return
	}
	info := fn.Pkg.Info
	var resTypes []types.Type
	for _, field := range res.List {
		t := info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return // tuple return: types already interface or concrete as-is
	}
	for i, expr := range ret.Results {
		if boxesInto(info, expr, resTypes[i]) {
			report(expr)
		}
	}
}

func boxedAssigns(info *types.Info, as *ast.AssignStmt, report func(ast.Expr)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lt := info.TypeOf(as.Lhs[i])
		if boxesInto(info, rhs, lt) {
			report(rhs)
		}
	}
}

// boxesInto reports whether assigning expr to a destination of type dst
// allocates an interface box: dst is a non-error interface and expr is a
// non-constant, non-nil, non-interface value.
func boxesInto(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) || isErrorType(dst) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false // untracked or compile-time constant
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }
