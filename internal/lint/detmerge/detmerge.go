// Package detmerge defines an interprocedural analyzer guarding the
// merge-order half of the determinism contract (DESIGN.md §2): results of
// parallel execution must be reduced in task order. parallel.Map, Sweep
// and Trials all return task-ordered slices precisely so callers
// can fold them deterministically; the bug this analyzer catches is
// laundering those results through an unordered container — a map keyed by
// trial ID, a completion channel — and folding from there, which makes the
// merged statistics depend on scheduler interleaving or map hash order.
//
// Taint roots are the return values of the parallel harness entry points.
// Sinks are folds: a range over a map or channel whose body accumulates
// into a variable or registry declared outside the loop (op-assignments,
// self-appends, and Merge/Add/Observe/Record calls). A fold over a tainted
// container is reported; a fold over a container received as a parameter
// is judged at every call site instead, so the finding lands where the
// parallel results actually entered the unordered container.
package detmerge

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer reports parallel results folded in nondeterministic order.
var Analyzer = &analysis.Analyzer{
	Name: "detmerge",
	Doc: "report folds of parallel trial results whose iteration order is " +
		"not provably task order (range over map or channel into an accumulator)",
	Requires: []*analysis.Analyzer{dataflow.Analyzer},
	Run:      run,
}

// parallelResults are the harness entry points whose return values are the
// taint roots.
var parallelResults = map[string]bool{
	"repro/internal/parallel.Map":    true,
	"repro/internal/parallel.Sweep":  true,
	"repro/internal/parallel.Trials": true,
}

// accumNames are method names that fold state into their receiver.
var accumNames = map[string]bool{
	"Merge": true, "Add": true, "Observe": true, "Record": true,
}

func run(pass *analysis.Pass) (any, error) {
	df := pass.ResultOf[dataflow.Analyzer].(*dataflow.Result)
	eng := dataflow.NewEngine(df.Index, dataflow.Hooks{
		CallTaint: func(ev *dataflow.Evaluator, call *ast.CallExpr, callee *types.Func) (dataflow.Taint, bool) {
			if parallelResults[dataflow.KeyOf(callee)] {
				return dataflow.Rooted, true
			}
			return dataflow.Untainted, false
		},
		Sinks: foldSinks,
		ArgWhat: func(param string, callee *dataflow.Func) string {
			return "parameter \"" + param + "\" of " + callee.Key +
				" is folded in unordered iteration"
		},
		ReportsTainted: true,
	})

	seen := map[token.Pos]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := df.Index.ByDecl(fd)
			if fn == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			eng.CheckFunction(fn, func(s dataflow.Site) {
				if !s.Taint.Tainted() {
					// Untainted: not parallel results. Param-dependent: the
					// callers' engines judge the call sites.
					return
				}
				if seen[s.Pos] || pass.InTestFile(s.Pos) {
					return
				}
				seen[s.Pos] = true
				pass.Reportf(s.Pos, "parallel results folded in nondeterministic order: %s", s.What)
			})
		}
	}
	return nil, nil
}

// foldSinks finds ranges over maps and channels whose body accumulates into
// state declared outside the loop.
func foldSinks(fn *dataflow.Func, ev *dataflow.Evaluator) []dataflow.Sink {
	info := fn.Pkg.Info
	var out []dataflow.Sink
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		var order string
		switch t.Underlying().(type) {
		case *types.Map:
			order = "map iteration order"
		case *types.Chan:
			order = "channel arrival order"
		default:
			return true // slices and arrays iterate in task order
		}
		if accumulates(info, rs) {
			out = append(out, dataflow.Sink{Expr: rs.X, What: "fold over " + order})
		}
		return true
	})
	return out
}

// accumulates reports whether the range body folds into state that outlives
// the loop: an op-assignment or self-referential assignment to a variable
// declared outside the range, or an accumulator method call on one.
func accumulates(info *types.Info, rs *ast.RangeStmt) bool {
	outer := func(e ast.Expr) *types.Var {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		v, _ := info.ObjectOf(id).(*types.Var)
		if v == nil {
			return nil
		}
		if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
			return nil // declared by the range statement or inside its body
		}
		return v
	}
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				v := outer(lhs)
				if v == nil {
					continue
				}
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					found = true // op-assignment: sum += x
					return false
				}
				if n.Tok == token.ASSIGN && i < len(n.Rhs) && mentionsVar(info, n.Rhs[i], v) {
					found = true // self-reference: xs = append(xs, x)
					return false
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !accumNames[sel.Sel.Name] {
				return true
			}
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if outer(sel.X) != nil {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func mentionsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}

// rootIdent unwraps selectors, indexes, derefs, and slices to the base
// identifier.
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
