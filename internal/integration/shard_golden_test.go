package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gridsim"
)

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
