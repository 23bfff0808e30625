// Package seededrand bans the global math/rand source. Every random draw in
// this repository must flow through an explicitly seeded *rand.Rand
// (DESIGN.md §6): the global source is process-wide state whose stream
// depends on what ran before, so one call through it silently breaks the
// byte-identical-output guarantee. Being type-aware, the check survives
// import aliases and dot imports, and it additionally rejects wall-clock
// seeding (rand.NewSource(time.Now().UnixNano()) and friends), which defeats
// the seed even when the *rand.Rand itself is injected.
package seededrand

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/internal/astutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "seededrand",
	Doc: "bans global math/rand calls and wall-clock seeding so every draw " +
		"flows through an explicitly seeded *rand.Rand",
	Run: run,
}

// constructors are the package-level math/rand functions that are allowed:
// they build seeded generators rather than drawing from the global source.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes an injected *rand.Rand
	"NewPCG":     true, // math/rand/v2 seeded generator
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// Methods on an injected *rand.Rand (r.Intn, rng.Float64)
				// are exactly the convention we want.
				return true
			}
			if !constructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"global math/rand call %q escapes the experiment seed; inject a seeded *rand.Rand (stats.NewRand)",
					types.ExprString(call.Fun))
				return true
			}
			// Seeded constructor: make sure the seed itself is not the wall
			// clock.
			for _, arg := range call.Args {
				if clock := wallClockCall(pass, arg); clock != "" {
					pass.Reportf(call.Pos(),
						"%s seeded from the wall clock (%s) defeats the experiment seed; derive the seed from the experiment configuration",
						types.ExprString(call.Fun), clock)
				}
			}
			return true
		})
	}
	return nil, nil
}

// wallClockCall reports the first time.Now/time.Since call nested in expr,
// or "" if there is none. Nested math/rand constructor calls are skipped:
// each constructor is visited (and reported) on its own, so descending into
// one here would double-report rand.New(rand.NewSource(time.Now()…)).
func wallClockCall(pass *analysis.Pass, expr ast.Expr) string {
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := astutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if constructors[fn.Name()] {
				return false
			}
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				found = "time." + fn.Name()
				return false
			}
		}
		return true
	})
	return found
}
