package dataflow

import (
	"go/ast"
	"go/types"
)

// Evaluator computes the taint of expressions inside one function. It is
// flow-insensitive: a local variable's taint is the join of every value
// ever assigned to it (including writes into it as a container — index
// assignments, channel sends, appends), which cannot lose a root and
// therefore never manufactures an "underived" finding out of ordering.
type Evaluator struct {
	eng *Engine
	fn  *Func

	// paramBit maps the enclosing function's receiver/parameters to their
	// bit index (receiver = 0 for methods).
	paramBit map[*types.Var]int
	// litParams are parameters of function literals inside the body: not
	// call-site checkable, so they are judged by RootParam alone.
	litParams map[*types.Var]bool
	// assigns collects, per local variable, every expression assigned to
	// it or written into it.
	assigns map[*types.Var][]ast.Expr
	// ranged records range bindings: the container expression and whether
	// the variable is the key (index) or the value.
	ranged map[*types.Var][]rangeBinding
	// namedResults are the named result variables, for naked returns.
	namedResults []*types.Var

	objMemo map[*types.Var]Taint
	objBusy map[*types.Var]bool
}

type rangeBinding struct {
	container ast.Expr
	isKey     bool
}

// Info returns the type information resolving the function's syntax.
func (ev *Evaluator) Info() *types.Info { return ev.fn.Pkg.Info }

// RecvExpr returns the receiver expression of a method call, or nil.
func (ev *Evaluator) RecvExpr(call *ast.CallExpr) ast.Expr {
	return recvExpr(ev.Info(), call)
}

func newEvaluator(eng *Engine, fn *Func) *Evaluator {
	ev := &Evaluator{
		eng:       eng,
		fn:        fn,
		paramBit:  map[*types.Var]int{},
		litParams: map[*types.Var]bool{},
		assigns:   map[*types.Var][]ast.Expr{},
		ranged:    map[*types.Var][]rangeBinding{},
		objMemo:   map[*types.Var]Taint{},
		objBusy:   map[*types.Var]bool{},
	}
	info := fn.Pkg.Info

	bit := 0
	declare := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			if len(field.Names) == 0 {
				bit++
				continue
			}
			for _, id := range field.Names {
				if v, ok := info.Defs[id].(*types.Var); ok {
					ev.paramBit[v] = bit
				}
				bit++
			}
		}
	}
	declare(fn.Decl.Recv)
	declare(fn.Decl.Type.Params)

	if res := fn.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, id := range field.Names {
				if v, ok := info.Defs[id].(*types.Var); ok {
					ev.namedResults = append(ev.namedResults, v)
				}
			}
		}
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			for _, field := range n.Type.Params.List {
				for _, id := range field.Names {
					if v, ok := info.Defs[id].(*types.Var); ok {
						ev.litParams[v] = true
					}
				}
			}
		case *ast.AssignStmt:
			ev.recordAssign(n)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					}
					if rhs != nil {
						ev.record(id, rhs)
					}
				}
			}
		case *ast.RangeStmt:
			ev.recordRange(n)
		case *ast.SendStmt:
			ev.recordWrite(n.Chan, n.Value)
		}
		return true
	})
	return ev
}

func (ev *Evaluator) recordAssign(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			ev.record(l, rhs)
		default:
			// m[k] = v, *p = v, s.f = v: a write into the container or
			// pointee taints the root variable.
			ev.recordWrite(lhs, rhs)
		}
	}
}

func (ev *Evaluator) record(id *ast.Ident, rhs ast.Expr) {
	obj := ev.objOf(id)
	if obj == nil {
		return
	}
	ev.assigns[obj] = append(ev.assigns[obj], rhs)
}

// recordWrite taints the root identifier of a container expression (map
// index, slice index, field selector, pointer deref, channel) with the
// written value: elements later read back out of the container inherit it.
func (ev *Evaluator) recordWrite(container ast.Expr, value ast.Expr) {
	if id := rootIdent(container); id != nil {
		ev.record(id, value)
	}
}

func (ev *Evaluator) recordRange(rs *ast.RangeStmt) {
	bind := func(e ast.Expr, isKey bool) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := ev.objOf(id)
		if obj == nil {
			return
		}
		ev.ranged[obj] = append(ev.ranged[obj], rangeBinding{container: rs.X, isKey: isKey})
	}
	if rs.Key != nil {
		bind(rs.Key, true)
	}
	if rs.Value != nil {
		bind(rs.Value, false)
	}
}

func (ev *Evaluator) objOf(id *ast.Ident) *types.Var {
	info := ev.Info()
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// rootIdent unwraps selectors, indexes, derefs, and slices to the base
// identifier, or nil (e.g. calls).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Taint judges one expression.
func (ev *Evaluator) Taint(e ast.Expr) Taint {
	if e == nil {
		return Untainted
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ev.Taint(e.X)
	case *ast.BasicLit:
		return Untainted
	case *ast.Ident:
		return ev.identTaint(e)
	case *ast.SelectorExpr:
		return ev.selectorTaint(e)
	case *ast.BinaryExpr:
		return ev.Taint(e.X).Or(ev.Taint(e.Y))
	case *ast.UnaryExpr:
		return ev.Taint(e.X)
	case *ast.StarExpr:
		return ev.Taint(e.X)
	case *ast.IndexExpr:
		// Reading an element derives from the container. (Generic
		// instantiations also parse as IndexExpr; their taint as a bare
		// function value is irrelevant and the container rule is harmless.)
		return ev.Taint(e.X)
	case *ast.SliceExpr:
		return ev.Taint(e.X)
	case *ast.TypeAssertExpr:
		return ev.Taint(e.X)
	case *ast.CompositeLit:
		t := Untainted
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.Or(ev.Taint(el))
		}
		return t
	case *ast.CallExpr:
		return ev.callTaint(e)
	case *ast.FuncLit:
		return Untainted
	}
	return Untainted
}

func (ev *Evaluator) identTaint(id *ast.Ident) Taint {
	obj := ev.Info().ObjectOf(id)
	switch obj := obj.(type) {
	case *types.Const:
		if h := ev.eng.Hooks.RootObj; h != nil && h(obj) {
			return Rooted
		}
		return Untainted
	case *types.Var:
		return ev.objTaint(obj)
	}
	return Untainted
}

// objTaint judges a variable: parameters by their bit (or RootParam),
// closure parameters by RootParam alone, locals by the join of their
// assignments and range bindings, package-level variables by RootObj.
func (ev *Evaluator) objTaint(obj *types.Var) Taint {
	if bit, ok := ev.paramBit[obj]; ok {
		// Declared-function parameters are never rooted by name: they are
		// conduits, judged at call sites through the demand mechanism. A
		// blanket "params named seed are roots" rule would zero the demand
		// mask and hide literal seeds behind every helper.
		return paramTaint(bit)
	}
	if ev.litParams[obj] {
		if h := ev.eng.Hooks.RootParam; h != nil && h(obj.Name(), obj.Type()) {
			return Rooted
		}
		return Untainted
	}
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		if h := ev.eng.Hooks.RootObj; h != nil && h(obj) {
			return Rooted
		}
		return Untainted
	}
	if t, ok := ev.objMemo[obj]; ok {
		return t
	}
	if ev.objBusy[obj] {
		// Self-referential assignment chain (x = append(x, y)): resolve by
		// the client's polarity; the join with the chain's other operands
		// still carries any real root.
		return ev.eng.cycleTaint()
	}
	ev.objBusy[obj] = true
	defer func() { ev.objBusy[obj] = false }()

	t := Untainted
	for _, rhs := range ev.assigns[obj] {
		t = t.Or(ev.Taint(rhs))
	}
	for _, rb := range ev.ranged[obj] {
		t = t.Or(ev.rangeTaint(rb))
	}
	ev.objMemo[obj] = t
	return t
}

// rangeTaint judges a range binding: values always derive from the
// container; keys do only for maps (slice/array indices are plain ints,
// and a channel's single binding is the received value).
func (ev *Evaluator) rangeTaint(rb rangeBinding) Taint {
	if !rb.isKey {
		return ev.Taint(rb.container)
	}
	t := ev.Info().TypeOf(rb.container)
	if t == nil {
		return Untainted
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Chan:
		return ev.Taint(rb.container)
	}
	return Untainted
}

func (ev *Evaluator) selectorTaint(sel *ast.SelectorExpr) Taint {
	info := ev.Info()
	if s, ok := info.Selections[sel]; ok {
		if s.Kind() == types.FieldVal {
			if h := ev.eng.Hooks.RootField; h != nil && h(sel.Sel.Name, s.Type()) {
				return Rooted
			}
			// A field of a tainted struct value is tainted: this is how
			// streams threaded through struct fields keep their origin.
			return ev.Taint(sel.X)
		}
		return Untainted // method value
	}
	// Qualified identifier (pkg.Name).
	return ev.identTaint(sel.Sel)
}

func (ev *Evaluator) callTaint(call *ast.CallExpr) Taint {
	info := ev.Info()
	// Conversion: T(x) derives from x.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return ev.Taint(call.Args[0])
		}
		return Untainted
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "min", "max":
				t := Untainted
				for _, a := range call.Args {
					t = t.Or(ev.Taint(a))
				}
				return t
			}
			return Untainted
		}
	}
	callee := Callee(info, call)
	if callee == nil {
		return Untainted // function value or interface dispatch
	}
	if h := ev.eng.Hooks.CallTaint; h != nil {
		if t, ok := h(ev, call, callee); ok {
			return t
		}
	}
	target := ev.eng.Index.Lookup(KeyOf(callee))
	if target == nil {
		return Untainted
	}
	// Substitute this call's arguments into the callee's return summary.
	sum := ev.eng.ReturnTaint(target)
	t := Taint{rooted: sum.rooted}
	if sum.params == 0 {
		return t
	}
	for _, pa := range demandedArgs(info, call, target, sum.params) {
		t = t.Or(ev.Taint(pa.expr))
	}
	return t
}
