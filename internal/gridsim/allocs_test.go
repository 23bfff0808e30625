package gridsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

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

// TestRunTrialsFaultedAllocsCeiling is the same ensemble under
// HijackRecovery with a metrics-only observer. Each trial rebuilds its
// injector and per-trial registry, but the compiled link table (DESIGN.md
// §10) lives in Grid arenas that ResetConfig reuses: it costs O(1)
// allocations per trial, not O(edges). It measures about 7,150
// allocations; a table rebuilt per trial adds only a few dozen, but a
// per-edge or per-contact allocation would pass the ceiling many times
// over.
func TestRunTrialsFaultedAllocsCeiling(t *testing.T) {
	const ceiling = 8000
	cfg := Config{
		Size: 25, SpanRatio: 2.0, FailureRate: 0.10,
		AttackerShare: 0.30, AttackerRow: 7, AttackerCol: 7,
		BoundaryRadius: 5, Seed: 1,
		Faults: faults.HijackRecovery(), Obs: obs.NewMetricsOnly(),
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
		t.Errorf("RunTrials under hijack-recovery: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
