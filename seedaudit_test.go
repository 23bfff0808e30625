package repro

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
	"repro/internal/lint/seededrand"
	"repro/internal/lint/seedflow"
	"repro/internal/lint/unusedexport"
)

// TestSeedAudit is the whole-module audit: one load of ./... (tests
// included) checked by three analyzers from internal/lint.
//
// Two enforce the repository's determinism convention (DESIGN.md §6): every
// random draw flows through an explicitly seeded generator, and every
// generator's seed is dataflow-derivable from a study seed (both also run
// via cmd/repolint and `make lint`):
//
//   - seededrand bans draws from the global math/rand source and wall-clock
//     seeding, type-aware so aliases and dot imports cannot slip past;
//   - seedflow follows seeds across call boundaries and reports RNG
//     construction sites whose seed does not derive from a Study/Scenario
//     seed — literal seeds hidden behind helpers, loop-index reseeding,
//     seeds threaded through struct fields.
//
// The third, unusedexport, reports exported funcs, methods and types that
// no non-test file references. Its findings for a package depend on the
// package's importers, so it runs only here, over the full load, and not
// in cmd/repolint's per-package action cache (DESIGN.md §8).
//
// The analyzers' own fixtures (internal/lint/testdata) carry the positive
// cases, so the repo-wide run here only needs to assert the codebase is
// clean.
func TestSeedAudit(t *testing.T) {
	pkgs, err := load.Packages(".", true, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkgs, []*analysis.Analyzer{seededrand.Analyzer, seedflow.Analyzer, unusedexport.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: %s (%s)", f.Position.Filename, f.Position.Line, f.Diagnostic.Message, f.Analyzer)
	}
}
