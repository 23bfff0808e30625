package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/mining"
	"repro/internal/p2p"
)

func TestNewValidation(t *testing.T) {
	if _, err := FromConfig(Config{Nodes: 1}); err == nil {
		t.Error("one-node simulation accepted")
	}
	if _, err := FromConfig(Config{Nodes: 10, Pools: []mining.Pool{{HashShare: 2}}}); err == nil {
		t.Error("invalid pool share accepted")
	}
}

func TestMiningProducesRoughlyExpectedBlocks(t *testing.T) {
	s, err := FromConfig(Config{Nodes: 50, Seed: 4, Gossip: p2p.Config{FailureRate: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	const hours = 10
	s.Run(hours * time.Hour)
	// Expect ~6 blocks/hour; Poisson std ~ sqrt(60) ≈ 7.7.
	got := s.BlocksProduced()
	want := hours * 6
	if got < want-25 || got > want+25 {
		t.Errorf("blocks produced = %d, want ~%d", got, want)
	}
	// Network must be synced shortly after.
	lag := s.LagHistogram()
	if lag.Synced < 45 {
		t.Errorf("synced = %d of 50", lag.Synced)
	}
}

func TestHonestShareSlowsProduction(t *testing.T) {
	run := func(share float64) int {
		s, err := FromConfig(Config{Nodes: 20, Seed: 8, Gossip: p2p.Config{FailureRate: 1e-12}})
		if err != nil {
			t.Fatal(err)
		}
		s.SetHonestShare(share)
		s.StartMining()
		s.Run(20 * time.Hour)
		return s.BlocksProduced()
	}
	full := run(1.0)
	third := run(0.3)
	ratio := float64(full) / float64(third)
	if ratio < 2.3 || ratio > 4.5 {
		t.Errorf("production ratio full/0.3 = %v (full=%d, third=%d), want ~3.3", ratio, full, third)
	}
}

func TestZeroShareStopsMining(t *testing.T) {
	s, err := FromConfig(Config{Nodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetHonestShare(0)
	s.StartMining()
	s.Run(24 * time.Hour)
	if s.BlocksProduced() != 0 {
		t.Errorf("blocks = %d with zero share", s.BlocksProduced())
	}
}

func TestStopMining(t *testing.T) {
	s, err := FromConfig(Config{Nodes: 10, Seed: 2, Gossip: p2p.Config{FailureRate: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	s.Run(2 * time.Hour)
	n := s.BlocksProduced()
	if n == 0 {
		t.Fatal("no blocks in 2h")
	}
	s.StopMining()
	s.Run(10 * time.Hour)
	// At most one in-flight block fires after StopMining.
	if s.BlocksProduced() > n+1 {
		t.Errorf("mining continued after stop: %d -> %d", n, s.BlocksProduced())
	}
}

func TestNewTxsMonotonic(t *testing.T) {
	s, err := FromConfig(Config{Nodes: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := s.NewTxs(3)
	b := s.NewTxs(2)
	if len(a) != 3 || len(b) != 2 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	seen := map[uint64]bool{}
	for _, tx := range append(a, b...) {
		if seen[uint64(tx)] {
			t.Fatal("duplicate tx id")
		}
		seen[uint64(tx)] = true
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, int) {
		s, err := FromConfig(Config{Nodes: 30, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMining()
		s.Run(5 * time.Hour)
		return s.BlocksProduced(), s.LagHistogram().Synced
	}
	b1, s1 := run()
	b2, s2 := run()
	if b1 != b2 || s1 != s2 {
		t.Errorf("seeded runs diverged: (%d,%d) vs (%d,%d)", b1, s1, b2, s2)
	}
}

func TestMultiPoolAttribution(t *testing.T) {
	pools := []mining.Pool{
		{Name: "big", HashShare: 0.75},
		{Name: "small", HashShare: 0.25},
	}
	s, err := FromConfig(Config{Nodes: 30, Seed: 5, Pools: pools, Gossip: p2p.Config{FailureRate: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	s.Run(100 * time.Hour)
	// Count miner attribution along some node's best chain.
	tree := s.Network.Nodes[0].Tree
	counts := map[int]int{}
	for h := 1; h <= tree.Height(); h++ {
		b, _ := tree.AtHeight(h)
		counts[b.Miner]++
	}
	total := tree.Height()
	if total < 300 {
		t.Fatalf("chain too short: %d", total)
	}
	frac := float64(counts[0]) / float64(total)
	if math.Abs(frac-0.75) > 0.08 {
		t.Errorf("big pool mined %v of blocks, want ~0.75", frac)
	}
}
