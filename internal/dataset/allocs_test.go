package dataset

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestRunTraceAllocsCeiling holds the dense lag-trace kernel (DESIGN.md
// §12) under its allocation ceiling: one day at 10-minute sampling, so
// 144 samples, untracked and tracked. The kernel allocates its per-node
// arrays and snapshot batches once per run, and every sample's Vulnerable
// rows and per-AS synced row from one backing array each; a per-sample
// allocation creeping back into the sample step would add 144 and pass
// the ceiling (a map per sample, as the per-AS counts once were, made the
// tracked trace 910). AllocsPerRun runs at GOMAXPROCS 1, where RunTrace's
// gang runs its two tasks inline.
func TestRunTraceAllocsCeiling(t *testing.T) {
	const ceiling = 64
	p := testPop(t)
	for _, tracked := range []bool{false, true} {
		cfg := TraceConfig{Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 1, TrackSyncedByAS: tracked}
		var runErr error
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := p.RunTrace(cfg); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		t.Logf("tracked %v: %.0f allocs/op (ceiling %d)", tracked, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("RunTrace, tracked %v: %.0f allocs/op, ceiling %d", tracked, allocs, ceiling)
		}
	}
}

// TestRunTraceAllocsCeilingTwoCPUs holds the path TestRunTraceAllocsCeiling
// cannot reach: at GOMAXPROCS 2 RunTrace's gang runs its block and sample
// tasks on two goroutines, and each of the 19 phase joins allocates the
// gang's closures, WaitGroup and panic slots, about 141 allocations per
// 1-day trace in all. AllocsPerRun forces GOMAXPROCS 1, so this test reads
// the process's malloc count around one trace after a warm-up run, taking
// the least of three so a stray runtime allocation does not count. A
// per-sample allocation would add 144 and fail the ceiling. Under the race
// detector the counts vary, so the test runs only without it.
func TestRunTraceAllocsCeilingTwoCPUs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 220
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := testPop(t)
	cfg := TraceConfig{Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 1}
	if _, err := p.RunTrace(cfg); err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := p.RunTrace(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d allocs/op at GOMAXPROCS 2 (ceiling %d)", least, ceiling)
	if least > ceiling {
		t.Errorf("RunTrace at GOMAXPROCS 2: %d allocs/op, ceiling %d", least, ceiling)
	}
}

// TestGenerateAllocsCeiling holds population synthesis under its
// allocation ceiling. A full build allocates about 18,280 times, nearly
// all of them per AS: its Zipf weights and Multinomial split, its name
// strings and its topology registration. The per-AS prefixes share one
// backing array; one slice per AS would add about 1,650. The Multinomial
// remainder sorts in place; a reflection-based sort would add about 4,000
// allocations per build and fail here. Under the race detector sync.Pool
// drops items at random, so the count varies from run to run and has no
// bound to hold; the test runs only without it.
func TestGenerateAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 22500
	var genErr error
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Generate(1); err != nil {
			genErr = err
		}
	})
	if genErr != nil {
		t.Fatal(genErr)
	}
	t.Logf("%.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Generate: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
