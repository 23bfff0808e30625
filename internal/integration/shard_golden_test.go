package integration

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gridsim"
)

// TestExperimentAllShardedGolden pins the sharded-engine evaluation
// (`partition experiment all -seed 1 -shards K`) to a checked-in golden at
// shard counts 1, 4, and 16 crossed with study worker counts 1 and 8 — six
// byte-identical runs. The sharded engine is a different experiment from
// the legacy engine (pull-only vs. push-pull gossip), so it owns its own
// golden; what must never vary is the output across shard and worker
// counts.
func TestExperimentAllShardedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation × 6 configurations")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1_sharded.golden")
	if err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile("testdata/experiment_all_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, base) {
		t.Fatal("sharded golden is identical to the legacy golden; engine dispatch is broken")
	}
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards%d_workers%d", shards, workers), func(t *testing.T) {
				got := renderAll(t, workers, nil,
					core.WithShards(shards), core.WithShardWorkers(workers))
				if !bytes.Equal(got, want) {
					t.Errorf("output diverged from sharded golden (%d bytes vs %d)", len(got), len(want))
				}
			})
		}
	}
}

// TestExperimentAllShardedChurnyGolden crosses the two deterministic
// surfaces: fault injection under the sharded engine must be byte-identical
// across shard counts and pinned release to release.
func TestExperimentAllShardedChurnyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation × 2 configurations")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1_sharded_churny.golden")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile("testdata/experiment_all_seed1_sharded.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, plain) {
		t.Fatal("sharded churny golden is identical to the faults-off sharded golden")
	}
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			got := renderAll(t, 8, nil,
				core.WithShards(shards), core.WithFaults(faults.Churny()))
			if !bytes.Equal(got, want) {
				t.Errorf("output diverged from sharded churny golden (%d bytes vs %d)", len(got), len(want))
			}
		})
	}
}

// millionNodeDigest runs the 1000×1000 world — the million-node study the
// sharded engine exists for — for two block intervals plus a settle tail
// and digests everything observable into one SHA-256.
func millionNodeDigest(t *testing.T, shards, workers int) string {
	t.Helper()
	g, err := gridsim.New(1,
		gridsim.WithSize(1000),
		// A small span ratio keeps the million-cell run to tens of steps:
		// 0.02 × 1000 = 20 communication steps per block.
		gridsim.WithSpanRatio(0.02),
		gridsim.WithFailureRate(0.10),
		gridsim.WithAttacker(0.30, 500, 500),
		gridsim.WithBoundary(40, 0, 30),
		gridsim.WithShards(shards),
		gridsim.WithShardWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(2*g.StepsPerBlock() + 5)
	h := sha256.New()
	fmt.Fprintf(h, "mined=%d forks=%d counterfeit=%d;", g.BlocksMined(), g.ForksEmerged(), g.CounterfeitCells())
	for _, fc := range g.ForkCounts() {
		fmt.Fprintf(h, "%v:%d;", fc.Fork, fc.Cells)
	}
	h.Write([]byte(g.Render()))
	return hex.EncodeToString(h.Sum(nil))
}

// millionNodeGolden pins the million-node study's digest. Regenerate with
// `go test ./internal/integration -run TestMillionNodeShardedStudy -v`
// after an intentional engine change (the failure message prints the new
// value).
const millionNodeGolden = "7131f3313cb10ad58fc2ec78b896d1591c1192003a35b650c2d2b0182ade0eb9"

// TestMillionNodeShardedStudy is the acceptance gate of DESIGN.md §13: a
// 10⁶-node world produces a byte-identical study at shard counts 1, 4, and
// 16 and at gang widths 1 and 8 — all pinned to one golden digest.
func TestMillionNodeShardedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("five million-cell runs")
	}
	configs := []struct {
		name    string
		shards  int
		workers int
	}{
		{"shards1_workers1", 1, 1},
		{"shards4_workers1", 4, 1},
		{"shards4_workers8", 4, 8},
		{"shards16_workers1", 16, 1},
		{"shards16_workers8", 16, 8},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			got := millionNodeDigest(t, tc.shards, tc.workers)
			if got != millionNodeGolden {
				t.Errorf("digest %s diverged from golden %s", got, millionNodeGolden)
			}
		})
	}
}
