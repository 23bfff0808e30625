package netsim

import (
	"testing"
	"time"

	"repro/internal/p2p"
)

// TestGossipAllocsCeiling holds the structure-of-arrays gossip hot path
// (DESIGN.md §12) under its allocation ceiling: 150 nodes mining and
// relaying for 8 simulated hours. It measures 5,143 allocations; a
// per-message or per-hop allocation in the relay loop would blow through
// the ceiling, and so would peer-graph construction going back to a set
// per node (6,540). The race runtime allocates per event, so the test
// runs only without the race detector.
func TestGossipAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per event")
	}
	const ceiling = 6000
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		sim, err := FromConfig(Config{
			Nodes: 150, Seed: 7,
			Gossip: p2p.Config{FailureRate: 0.10},
		})
		if err != nil {
			runErr = err
			return
		}
		sim.StartMining()
		sim.Run(8 * time.Hour)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("150-node gossip run: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
