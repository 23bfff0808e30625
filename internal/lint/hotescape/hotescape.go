// Package hotescape enforces the allocation discipline of DESIGN.md §12 on
// functions annotated with a "//hot:path" doc comment: a hot function is one
// the profiles show on a per-event or per-cell path, and the
// structure-of-arrays rewrite got its speedups precisely by keeping
// allocation and map iteration out of those bodies. The analyzer reports,
// inside a //hot:path function (closures included — they run, or allocate,
// when the hot function does):
//
//   - a call to the builtin make — a fresh allocation per invocation, which
//     belongs in a Reset/constructor that reuses backing storage instead;
//   - a call to the builtin append — growth reallocates and even the
//     non-growing form hides a capacity check; hot paths index into
//     preallocated storage;
//   - a range over a map — a hash walk with randomised order, both slower
//     than a slice scan and a determinism hazard;
//   - interface boxing — passing a concrete value to an ...any parameter
//     allocates;
//   - a call whose callee reaches a make, a growing append or an interface
//     boxing anywhere in its static call graph.
//
// The callee summaries apply an escape exemption: a make with constant size
// arguments whose result provably never leaves its function is
// stack-allocated by the compiler and not charged to the hot path. Callees
// that carry the //hot:path pragma themselves are skipped — they are policed
// directly, and reporting them again at every caller would double-count.
// Helpers that legitimately grow storage (markRequested, setHave, interning)
// simply are not annotated — the annotation is the contract. Test files are
// skipped; //lint:ignore suppresses individual findings like every other
// analyzer in the suite.
package hotescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer reports allocations and map walks in //hot:path functions and
// the calls that reach allocations in their callees.
var Analyzer = &analysis.Analyzer{
	Name: "hotescape",
	Doc: "flags make/append/interface boxing and map iteration inside " +
		"functions annotated //hot:path, and calls from them that reach " +
		"such allocations in transitively reachable callees",
	Requires: []*analysis.Analyzer{dataflow.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	df := pass.ResultOf[dataflow.Analyzer].(*dataflow.Result)
	eng := dataflow.NewAllocEngine(df.Index)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !dataflow.IsHot(fd) {
				continue
			}
			if pass.InTestFile(fd.Pos()) {
				continue
			}
			checkBody(pass, fd)
			fn := df.Index.ByDecl(fd)
			if fn == nil {
				continue
			}
			checkHot(pass, eng, fn)
		}
	}
	return nil, nil
}

// checkBody reports every make, append and map walk in one hot function.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch dataflow.BuiltinName(pass.TypesInfo, n) {
			case "make":
				pass.Reportf(n.Pos(),
					"make inside //hot:path function %s allocates per call; preallocate in a constructor or Reset and reuse the backing storage",
					name)
			case "append":
				pass.Reportf(n.Pos(),
					"append inside //hot:path function %s can grow its backing array; index into preallocated storage instead",
					name)
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(),
						"map iteration inside //hot:path function %s is a randomised hash walk; keep a flat slice (or index log) alongside the map and scan that",
						name)
				}
			}
		}
		return true
	})
}

func checkHot(pass *analysis.Pass, eng *dataflow.AllocEngine, fn *dataflow.Func) {
	// The hot body's own boxing sites (checkBody reports make/append/map-range).
	for _, s := range eng.BoxSites(fn) {
		pass.Reportf(s.Pos, "interface boxing in //hot:path function %s allocates", fn.Key)
	}

	// Calls whose callees transitively allocate.
	seen := map[token.Pos]bool{}
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := dataflow.Callee(info, call)
		if callee == nil {
			return true
		}
		target := eng.Index.Lookup(dataflow.KeyOf(callee))
		if target == nil || target == fn || dataflow.IsHot(target.Decl) {
			return true
		}
		reached := eng.Reach(target)
		if len(reached) == 0 || seen[call.Pos()] {
			return true
		}
		seen[call.Pos()] = true
		w := reached[0] // first witness is enough for one diagnostic
		pass.Reportf(call.Pos(),
			"call from //hot:path function %s reaches %s at %s (via %s)",
			fn.Key, w.Site.Kind, w.Site.Position, pathString(w.Path))
		return true
	})
}

func pathString(path []*dataflow.Func) string {
	parts := make([]string, len(path))
	for i, f := range path {
		parts[i] = f.Key
	}
	return strings.Join(parts, " -> ")
}
