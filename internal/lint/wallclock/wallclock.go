// Package wallclock bans reading the wall clock in simulation packages.
// Simulated time in this repository advances only through the discrete
// event engine (Engine.Now / Engine.After); a time.Now or time.Since in a
// simulation path makes measured durations depend on host speed and
// scheduling, which is precisely the nondeterminism a measurement
// reproduction cannot afford. The check applies to non-test files of the
// simulation packages (attack, checkpoint, gridsim, netsim, sim, p2p,
// core, obs); tooling such as cmd/* may read the clock freely. The
// observability layer (internal/obs) is covered because its whole contract
// is that event timestamps are simulation ticks — a wall-clock read there
// would leak host time into traces that must be byte-identical across
// runs. The crash-safety layer (internal/checkpoint) is covered because a
// journal or its fingerprints must hash and replay identically across
// runs; wall-clock timestamps in records would break resume. The fault
// seam (internal/iofault) is covered because a ChaosFS draws every
// injected fault from seeded streams — a clock read there would make the
// same seed inject different faults on different hosts, destroying the
// replayability the chaos harness is built on.
//
// The service layer (internal/service) is covered with one carve-out: files
// named transport*.go hold the daemon's HTTP boundary, where stream pacing
// and poll intervals are genuine wall-clock concerns that can never reach a
// simulation. Everything else in the package — the job runner, the result
// cache, the spec dispatch — shares the simulation packages' contract that
// identical specs produce identical bytes, which a clock read would break.
package wallclock

import (
	"go/ast"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/internal/astutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "bans time.Now/time.Since/time.Until/time.Sleep in simulation " +
		"packages, where time must come from the event clock",
	Run: run,
}

// simPackages are the import-path leaf names of the packages whose time is
// simulated.
var simPackages = map[string]bool{
	"attack":     true,
	"checkpoint": true,
	"faults":     true,
	"gridsim":    true,
	"iofault":    true,
	"netsim":     true,
	"obs":        true,
	"sim":        true,
	"p2p":        true,
	"core":       true,
	"service":    true,
}

// transportExempt reports whether the file is a service-package transport
// file (transport*.go), the HTTP boundary allowed to pace itself on the
// wall clock.
func transportExempt(pkgLeaf, filename string) bool {
	return pkgLeaf == "service" && strings.HasPrefix(filepath.Base(filename), "transport")
}

// banned are the time functions that read or wait on the host clock.
var banned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Sleep": true,
}

func run(pass *analysis.Pass) (any, error) {
	parts := strings.Split(pass.Pkg.Path(), "/")
	leaf := parts[len(parts)-1]
	if !simPackages[leaf] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if transportExempt(leaf, pass.Fset.File(f.Pos()).Name()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s in simulation package %q: simulated time must come from the event clock (Engine.Now), not the host wall clock",
				fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}
