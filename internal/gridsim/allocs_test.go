package gridsim

import "testing"

// TestRunTrialsAllocsCeiling holds the structure-of-arrays grid hot path
// (DESIGN.md §12) under its allocation ceiling: Figure 7's 25×25 grid,
// 16 replicates × 20 block intervals, sequential. It measures about 380
// allocations; a per-cell or per-step allocation creeping back into the
// tick loop would multiply that well past the ceiling.
func TestRunTrialsAllocsCeiling(t *testing.T) {
	const ceiling = 600
	cfg := Config{
		Size: 25, SpanRatio: 2.0, FailureRate: 0.10,
		AttackerShare: 0.30, AttackerRow: 7, AttackerCol: 7,
		BoundaryRadius: 5, Seed: 1,
	}
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunTrials(cfg, TrialsConfig{Trials: 16, Blocks: 20, Workers: 1}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("RunTrials: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
