package gridsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// shardedFingerprint runs a sharded world to the given step and collapses
// everything observable — render, snapshot, counters — into one string, so
// two runs compare byte-for-byte.
func shardedFingerprint(t *testing.T, steps int, opts ...Option) string {
	t.Helper()
	o := obs.New(0)
	g, err := New(7, append([]Option{WithObserver(o)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(steps)
	var b strings.Builder
	b.WriteString(g.Render())
	for _, fc := range g.ForkCounts() {
		fmt.Fprintf(&b, "%v:%d;", fc.Fork, fc.Cells)
	}
	fmt.Fprintf(&b, "mined=%d forks=%d counterfeit=%d;",
		g.BlocksMined(), g.ForksEmerged(), g.CounterfeitCells())
	b.WriteString(o.Registry().Snapshot().Render())
	var trace strings.Builder
	if err := o.Tracer().WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	b.WriteString(trace.String())
	return b.String()
}

// TestShardCountInvariance is the tentpole property (DESIGN.md §13): the
// same world ticked at shard counts 1, 4, and 16 produces byte-identical
// render, fork counts, metrics, and trace.
func TestShardCountInvariance(t *testing.T) {
	attack := []Option{
		WithSize(24),
		WithAttacker(0.30, 7, 7),
		WithBoundary(5, 0, 200),
	}
	steps := 0
	base := ""
	for _, k := range []int{1, 4, 16} {
		opts := append(append([]Option{}, attack...), WithShards(k), WithShardWorkers(4))
		if steps == 0 {
			g, err := New(7, opts...)
			if err != nil {
				t.Fatal(err)
			}
			steps = g.StepsPerBlock()*8 + 3
		}
		got := shardedFingerprint(t, steps, opts...)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("shards=%d diverged from shards=1", k)
		}
	}
}

// TestShardWorkerInvariance checks gang width never changes output.
func TestShardWorkerInvariance(t *testing.T) {
	base := ""
	for _, w := range []int{1, 2, 8} {
		got := shardedFingerprint(t, 120,
			WithSize(20), WithAttacker(0.30, 5, 5), WithBoundary(4, 0, 150),
			WithShards(8), WithShardWorkers(w))
		if base == "" {
			base = got
		} else if got != base {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// TestShardFaultsCompose proves fault scenarios run under sharding with
// the same invariance: churny and flaky worlds stay byte-identical across
// shard counts, and differ from the faultless world.
func TestShardFaultsCompose(t *testing.T) {
	for _, sc := range []faults.Scenario{faults.Churny(), faults.Flaky()} {
		clean := shardedFingerprint(t, 100, WithSize(16), WithShards(1))
		base := ""
		for _, k := range []int{1, 4, 16} {
			got := shardedFingerprint(t, 100, WithSize(16), WithShards(k), WithFaults(sc))
			if base == "" {
				base = got
			} else if got != base {
				t.Fatalf("%s shards=%d diverged", sc.Name, k)
			}
		}
		if base == clean {
			t.Fatalf("%s run identical to faultless run — injector inert under sharding", sc.Name)
		}
	}
}

// TestShardedDiffersFromLegacy pins that Shards=0 and Shards>=1 are
// distinct engines (push-pull vs. pull-only gossip): same seed, different
// mid-transient trajectories. The comparison runs during the counterfeit
// fork's spreading phase — once the boundary region saturates both engines
// reach the same steady state, so a late-step comparison would coincide.
// If this ever starts passing as equal, the dispatch is broken and the
// legacy goldens are at risk.
func TestShardedDiffersFromLegacy(t *testing.T) {
	legacy, err := New(3, WithSize(20), WithAttacker(0.30, 7, 7), WithBoundary(5, 0, 200))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(3, WithSize(20), WithAttacker(0.30, 7, 7), WithBoundary(5, 0, 200), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	legacy.Advance(50)
	sharded.Advance(50)
	if legacy.Render() == sharded.Render() {
		t.Fatal("sharded engine rendered identically to legacy engine mid-transient")
	}
}

// TestShardedAttackCaptures checks the attack dynamics survive the
// pull-only semantics: with the boundary up, the counterfeit branch
// captures a region around the anchor, and after the boundary falls the
// honest chain reclaims it (the Figure 7 arc).
func TestShardedAttackCaptures(t *testing.T) {
	g, err := New(2, WithSize(25), WithAttacker(0.30, 7, 7), WithBoundary(5, 0, 200), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	captured := 0
	for step := 0; step < 200; step += g.StepsPerBlock() {
		g.Advance(g.StepsPerBlock())
		if c := g.CounterfeitCells(); c > captured {
			captured = c
		}
	}
	if captured < 2 {
		t.Fatalf("attack never captured a region: peak %d counterfeit cells", captured)
	}
	g.Advance(20 * g.StepsPerBlock())
	if c := g.CounterfeitCells(); c > 1 {
		t.Fatalf("honest chain failed to reclaim after boundary fell: %d counterfeit cells", c)
	}
}

// TestShardStatsAndCrossPulls sanity-checks the partition summary: halo
// matches the plan, cross-shard pulls accumulate with >1 shard and stay
// zero with 1.
func TestShardStatsAndCrossPulls(t *testing.T) {
	single, err := New(1, WithSize(16), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	single.Advance(64)
	if st := single.ShardStats(); st.CrossPulls != 0 || st.HaloCells != 0 || st.Shards != 1 {
		t.Fatalf("single-shard stats: %+v", st)
	}
	multi, err := New(1, WithSize(16), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	multi.Advance(64)
	st := multi.ShardStats()
	if st.Shards != 4 || st.HaloCells == 0 || st.CrossPulls == 0 {
		t.Fatalf("multi-shard stats: %+v", st)
	}
	// Legacy engine reports the zero value.
	legacy, err := New(1, WithSize(16))
	if err != nil {
		t.Fatal(err)
	}
	legacy.Advance(10)
	if st := legacy.ShardStats(); st != (ShardStats{}) {
		t.Fatalf("legacy engine ShardStats = %+v, want zero", st)
	}
}

// TestShardedBudgetAndReset covers the watchdog and arena-reuse contracts
// on the sharded engine: Advance stops at the budget with BudgetErr, and
// ResetConfig reproduces a fresh world byte-for-byte.
func TestShardedBudgetAndReset(t *testing.T) {
	g, err := New(1, WithSize(12), WithShards(4), WithStepBudget(30))
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(100)
	if g.Step() != 30 || g.BudgetErr() == nil {
		t.Fatalf("budget: step=%d exhausted=%v", g.Step(), g.BudgetErr() != nil)
	}

	fresh, err := New(5, WithSize(12), WithShards(4), WithAttacker(0.3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Advance(80)
	want := fresh.Render()

	// Reuse the budget-exhausted grid's arenas for a different config.
	if err := g.ResetConfig(NewConfig(5, WithSize(12), WithShards(4), WithAttacker(0.3, 3, 3))); err != nil {
		t.Fatal(err)
	}
	g.Advance(80)
	if g.Render() != want {
		t.Fatal("ResetConfig onto sharded engine not byte-identical to a fresh grid")
	}
}

// TestShardConfigValidation covers the new Config surface.
func TestShardConfigValidation(t *testing.T) {
	bad := []Config{
		{Size: 10, Shards: -1},
		{Size: 10, Shards: 101},
		{Size: 10, ShardWorkers: 2}, // workers without shards
	}
	for i, cfg := range bad {
		if _, err := FromConfig(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	if _, err := FromConfig(Config{Size: 10, Shards: 100, ShardWorkers: 2}); err != nil {
		t.Errorf("valid sharded config rejected: %v", err)
	}
}

// TestShardedTrials proves the ensemble path carries sharding: RunTrials
// over a sharded Config produces identical aggregates at any shard count,
// and the journal fingerprint collapses every shard count >= 1 (plus the
// worker width) to one identity while keeping the legacy-vs-sharded engine
// split.
func TestShardedTrials(t *testing.T) {
	mk := func(shards int) Config {
		return NewConfig(9, WithSize(14), WithAttacker(0.3, 4, 4), WithBoundary(3, 0, 80),
			WithShards(shards))
	}
	tc := TrialsConfig{Trials: 4, Blocks: 4}
	r1, err := RunTrials(mk(1), tc)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunTrials(mk(4), tc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", r1.Trials) != fmt.Sprintf("%+v", r4.Trials) {
		t.Fatal("sharded ensembles diverged between shard counts 1 and 4")
	}

	base := tc.Fingerprint(mk(1))
	same := NewConfig(9, WithSize(14), WithAttacker(0.3, 4, 4), WithBoundary(3, 0, 80),
		WithShards(16), WithShardWorkers(8))
	if tc.Fingerprint(same) != base {
		t.Error("fingerprint distinguishes equivalent sharded configs")
	}
	legacy := NewConfig(9, WithSize(14), WithAttacker(0.3, 4, 4), WithBoundary(3, 0, 80))
	if tc.Fingerprint(legacy) == base {
		t.Error("fingerprint conflates the legacy and sharded engines")
	}
}
