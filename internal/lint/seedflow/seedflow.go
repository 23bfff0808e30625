// Package seedflow defines an interprocedural analyzer enforcing the seed
// discipline of DESIGN.md §2: every random stream constructed in library
// code must have its seed dataflow-derived from a study/scenario/task seed.
// It catches literal seeds hidden behind helper calls, re-seeding from bare
// loop indices, and streams threaded through struct fields — the classes of
// bug the intraprocedural seededrand analyzer cannot see.
//
// The taint roots are where seeds legitimately originate: struct fields,
// package-level constants/variables, and closure parameters whose name
// contains "seed" (closures receive task seeds from the parallel harness);
// values returned by flag parsing or spec parsing (core.ParseSpec is the
// service boundary's flag surface); and anything derived from an
// already-rooted stream. Func-typed parameters are never judged as seed
// carriers: they are control hooks, and demand reaching them is an
// artifact of joining whole struct literals. The sinks are the RNG construction and re-seeding
// points (math/rand NewSource/New, math/rand/v2 NewPCG/NewChaCha8,
// stats.NewRand, (*Fast).Seed, (*rand.Rand).Seed,
// parallel.DeriveSeed). A sink whose seed expression is definitely not
// derived from any root is reported; a seed that depends on the enclosing
// function's parameters is judged at every call site instead, so the
// finding lands in the package that actually supplied the literal.
//
// Test files and package main are exempt: tests pin seeds on purpose, and
// command-line binaries are where study seeds enter the program.
package seedflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer reports RNG seeds that do not derive from a study seed.
var Analyzer = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "report RNG streams whose seed is not dataflow-derived from a " +
		"study/scenario/task seed, across call boundaries",
	Requires: []*analysis.Analyzer{dataflow.Analyzer},
	Run:      run,
}

// sinkArgs maps canonical callee keys to the argument indices that must be
// seed-derived (receiver excluded; indices are into CallExpr.Args).
var sinkArgs = map[string][]int{
	"math/rand.NewSource":                {0},
	"math/rand.Rand.Seed":                {0},
	"math/rand/v2.NewPCG":                {0, 1},
	"math/rand/v2.NewChaCha8":            {0},
	"repro/internal/stats.Fast.Seed":     {0},
	"repro/internal/stats.NewRand":       {0},
	"repro/internal/parallel.DeriveSeed": {0},
}

// derivingCalls maps callee keys to the argument whose taint the call
// result inherits (seed transformers outside the load set).
var derivingCalls = map[string]int{
	"math/rand.New":           0,
	"math/rand.NewSource":     0,
	"math/rand/v2.New":        0,
	"math/rand/v2.NewChaCha8": 0,
}

// rngPkgs are packages whose method calls are draws: the result derives
// from the receiver stream.
var rngPkgs = map[string]bool{
	"math/rand":            true,
	"math/rand/v2":         true,
	"repro/internal/stats": true,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		// Commands are where seeds enter the program (flags, defaults); the
		// discipline binds library code.
		return nil, nil
	}
	df := pass.ResultOf[dataflow.Analyzer].(*dataflow.Result)
	eng := dataflow.NewEngine(df.Index, hooks())

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
				if s.Taint.Tainted() || !s.Taint.Definite() {
					return
				}
				if seen[s.Pos] || pass.InTestFile(s.Pos) {
					return
				}
				seen[s.Pos] = true
				pass.Reportf(s.Pos, "seed is not derived from a study seed: %s", s.What)
			})
		}
	}
	return nil, nil
}

func hooks() dataflow.Hooks {
	return dataflow.Hooks{
		RootParam: func(name string, t types.Type) bool {
			return seedish(name) && integer(t)
		},
		RootField: func(name string, t types.Type) bool {
			return seedish(name) && integer(t)
		},
		RootObj: func(obj types.Object) bool {
			switch obj.(type) {
			case *types.Const, *types.Var:
				return seedish(obj.Name()) && integer(obj.Type())
			}
			return false
		},
		CallTaint: callTaint,
		Sinks:     sinks,
		ArgWhat: func(param string, callee *dataflow.Func) string {
			return "argument for seed parameter \"" + param + "\" of " + callee.Key
		},
		DemandParam: func(name string, t types.Type) bool {
			// A func-typed parameter is a control hook, not data: no seed
			// can flow through it to an integer sink. Without this filter a
			// supervision-struct literal (seed field beside a quit hook)
			// would mark the hook parameter as seed-demanded and flag the
			// nil a caller passes for it.
			_, isFunc := t.Underlying().(*types.Signature)
			return !isFunc
		},
	}
}

func callTaint(ev *dataflow.Evaluator, call *ast.CallExpr, callee *types.Func) (dataflow.Taint, bool) {
	pkg := ""
	if callee.Pkg() != nil {
		pkg = callee.Pkg().Path()
	}
	// Flag values are externally controlled inputs — legitimate seed origins.
	if pkg == "flag" {
		return dataflow.Rooted, true
	}
	// A parsed spec document is the service boundary's flag surface: the
	// seed it carries was chosen by the submitting client (DESIGN.md §14),
	// exactly as legitimate an origin as a -seed flag.
	if dataflow.KeyOf(callee) == "repro/internal/core.ParseSpec" {
		return dataflow.Rooted, true
	}
	key := dataflow.KeyOf(callee)
	if i, ok := derivingCalls[key]; ok && i < len(call.Args) {
		return ev.Taint(call.Args[i]), true
	}
	if key == "repro/internal/parallel.DeriveSeed" {
		t := dataflow.Untainted
		for _, a := range call.Args {
			t = t.Or(ev.Taint(a))
		}
		return t, true
	}
	// A draw from a stream derives from the stream.
	if rngPkgs[pkg] {
		if rx := ev.RecvExpr(call); rx != nil {
			return ev.Taint(rx), true
		}
	}
	return dataflow.Untainted, false
}

func sinks(fn *dataflow.Func, ev *dataflow.Evaluator) []dataflow.Sink {
	info := fn.Pkg.Info
	var out []dataflow.Sink
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := dataflow.Callee(info, call)
		if callee == nil {
			return true
		}
		key := dataflow.KeyOf(callee)
		for _, i := range sinkArgs[key] {
			if i < len(call.Args) {
				out = append(out, dataflow.Sink{
					Expr: call.Args[i],
					What: "seed for " + key,
				})
			}
		}
		return true
	})
	return out
}

func seedish(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

func integer(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
