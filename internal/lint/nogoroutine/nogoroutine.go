// Package nogoroutine confines raw concurrency to internal/parallel. The
// repository's determinism contract (DESIGN.md §7) is that every fan-out
// goes through the deterministic worker pool — parallel.Map/Sweep/Trials —
// which derives per-task seeds and collects results in task order. A `go`
// statement or hand-rolled sync.WaitGroup anywhere else reintroduces
// scheduling-order dependence that the pool exists to remove. Test files
// are exempt: tests may legitimately exercise concurrency directly.
package nogoroutine

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "restricts go statements and raw sync.WaitGroup fan-out to " +
		"internal/parallel, the deterministic worker pool",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/parallel") || pass.Pkg.Path() == "parallel" {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw goroutine outside internal/parallel; fan out through the deterministic worker pool (parallel.Map/Sweep/Trials)")
			case *ast.Ident:
				obj, ok := pass.TypesInfo.Defs[n].(*types.Var)
				if !ok || obj == nil {
					return true
				}
				if isWaitGroup(obj.Type()) {
					pass.Reportf(n.Pos(),
						"raw sync.WaitGroup outside internal/parallel; fan out through the deterministic worker pool (parallel.Map/Sweep/Trials)")
				}
			}
			return true
		})
	}
	return nil, nil
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
