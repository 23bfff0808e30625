package repro

import (
	"testing"

	"repro/internal/lint"
)

// TestLintSuite is the repository's one lint gate: lint.Audit loads ./...
// once, tests included, and runs the full suite from internal/lint over it
// (DESIGN.md §8) — the determinism analyzers (seededrand, seedflow,
// maporder, detmerge, nogoroutine, wallclock), the safety analyzers
// (checkederr, hotescape) and unusedexport, which is only sound over a
// whole-module load. Any finding fails tier-1.
//
// The analyzers' own fixtures (internal/lint/testdata) carry the positive
// cases, and internal/lint's TestAuditCatchesEveryAnalyzer proves that
// Audit reports a seeded violation of each of the nine, so the run here
// only needs to assert the codebase is clean.
func TestLintSuite(t *testing.T) {
	findings, err := lint.Audit(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
