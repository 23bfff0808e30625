package dataset

import (
	"testing"
	"time"
)

// TestRunTraceAllocsCeiling holds the dense lag-trace kernel (DESIGN.md
// §12) under its allocation ceiling: one day at 10-minute sampling,
// untracked, so 144 samples. The kernel allocates its per-node arrays once
// per run and every sample's Vulnerable rows from one backing array; a
// per-sample allocation creeping back into the sample step would add 144
// and pass the ceiling.
func TestRunTraceAllocsCeiling(t *testing.T) {
	const ceiling = 64
	p := testPop(t)
	cfg := TraceConfig{Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 1}
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := p.RunTrace(cfg); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("RunTrace: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
