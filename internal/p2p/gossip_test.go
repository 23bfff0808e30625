package p2p

import (
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// newTestNetwork builds an n-node network with the given config and seed.
func newTestNetwork(t *testing.T, n int, cfg Config, seed int64) *Network {
	t.Helper()
	engine := &sim.Engine{}
	rng := stats.NewRand(seed)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{Family: topology.FamilyIPv4})
	}
	net, err := NewNetwork(engine, nodes, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	engine := &sim.Engine{}
	rng := stats.NewRand(1)
	nodes := []*Node{NewNode(0, Profile{}), NewNode(1, Profile{})}
	tests := []struct {
		name    string
		engine  *sim.Engine
		nodes   []*Node
		cfg     Config
		rng     interface{}
		wantErr bool
	}{
		{"nil engine", nil, nodes, Config{}, rng, true},
		{"one node", engine, nodes[:1], Config{}, rng, true},
		{"negative failure", engine, nodes, Config{FailureRate: -0.5}, rng, true},
		{"failure rate 1", engine, nodes, Config{FailureRate: 1.0}, rng, true},
		{"negative peers", engine, nodes, Config{PeerCount: -1}, rng, true},
		{"ok", engine, nodes, Config{}, rng, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewNetwork(tt.engine, tt.nodes, tt.cfg, stats.NewRand(1))
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	net := newTestNetwork(t, 10, Config{}, 1)
	cfg := net.cfg
	if cfg.PeerCount != 8 {
		t.Errorf("default PeerCount = %d, want 8", cfg.PeerCount)
	}
	if cfg.FailureRate != 0.10 {
		t.Errorf("default FailureRate = %v, want 0.10", cfg.FailureRate)
	}
	if cfg.Spreading != Diffusion {
		t.Errorf("default Spreading = %v, want Diffusion", cfg.Spreading)
	}
}

func TestConnectDegrees(t *testing.T) {
	net := newTestNetwork(t, 100, Config{PeerCount: 8}, 42)
	for i, node := range net.Nodes {
		if len(node.Peers) != 8 {
			t.Fatalf("node %d has %d outbound peers, want 8", i, len(node.Peers))
		}
		seen := map[NodeID]bool{}
		for _, p := range node.Peers {
			if int(p) == i {
				t.Fatalf("node %d peers with itself", i)
			}
			if seen[p] {
				t.Fatalf("node %d has duplicate peer %d", i, p)
			}
			seen[p] = true
		}
		if len(net.Neighbors(NodeID(i))) < 8 {
			t.Fatalf("node %d has %d neighbors, want >= 8", i, len(net.Neighbors(NodeID(i))))
		}
	}
}

func TestConnectSmallNetworkClamps(t *testing.T) {
	net := newTestNetwork(t, 3, Config{PeerCount: 8}, 1)
	for _, node := range net.Nodes {
		if len(node.Peers) != 2 {
			t.Errorf("peer count = %d, want clamped 2", len(node.Peers))
		}
	}
}

func TestBlockPropagatesToAllNodes(t *testing.T) {
	// With (effectively) zero failures, a published block must reach every
	// node. FailureRate 0 would be replaced by the 0.10 default, so use a
	// vanishing epsilon.
	net := newTestNetwork(t, 60, Config{FailureRate: 1e-12}, 7)
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(0, b); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(time.Hour)
	for i, node := range net.Nodes {
		if node.Height() != 1 {
			t.Fatalf("node %d height = %d, want 1", i, node.Height())
		}
	}
	if net.RefHeight() != 1 {
		t.Errorf("RefHeight = %d, want 1", net.RefHeight())
	}
}

func TestBlockPropagationWithFailures(t *testing.T) {
	// At the paper's 10% failure rate the redundancy of 8-peer gossip still
	// reaches (nearly) everyone.
	net := newTestNetwork(t, 200, Config{FailureRate: 0.10}, 21)
	parent := blockchain.Genesis()
	for h := 1; h <= 5; h++ {
		b := blockchain.NewBlock(parent, 0, net.Engine.Now(), nil, false)
		if err := net.Publish(0, b); err != nil {
			t.Fatal(err)
		}
		net.Engine.Run(net.Engine.Now() + 10*time.Minute)
		parent = b
	}
	lag := net.LagHistogram()
	if lag.Total() != 200 {
		t.Fatalf("histogram total = %d", lag.Total())
	}
	if frac := float64(lag.Synced) / 200; frac < 0.95 {
		t.Errorf("synced fraction = %v, want >= 0.95 under 10%% failures", frac)
	}
}

func TestDownNodeDoesNotReceive(t *testing.T) {
	net := newTestNetwork(t, 30, Config{FailureRate: 1e-12}, 3)
	net.Nodes[5].Up = false
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(0, b); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(time.Hour)
	if net.Nodes[5].Height() != 0 {
		t.Error("down node advanced its chain")
	}
	if net.Nodes[6].Height() != 1 {
		t.Error("up node did not receive block")
	}
}

func TestLinkPolicyPartitions(t *testing.T) {
	// Split nodes into two halves and block all cross-half links: blocks
	// published in one half must never reach the other.
	const n = 80
	net := newTestNetwork(t, n, Config{FailureRate: 1e-12}, 9)
	cut := func(id NodeID) bool { return int(id) < n/2 }
	net.SetPolicy(func(from, to NodeID, _ time.Duration) bool {
		return cut(from) == cut(to)
	})
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(0, b); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(time.Hour)
	for i := 0; i < n; i++ {
		want := 0
		if cut(NodeID(i)) {
			want = 1
		}
		if net.Nodes[i].Height() != want {
			t.Fatalf("node %d height = %d, want %d", i, net.Nodes[i].Height(), want)
		}
	}
	if net.MsgStats().Blocked == 0 {
		t.Error("no messages were blocked by the partition policy")
	}
}

func TestOrphanHandling(t *testing.T) {
	// Deliver a child block to a node missing its parent: it should stash it,
	// fetch the parent, and end up with both.
	net := newTestNetwork(t, 10, Config{FailureRate: 1e-12}, 5)
	g := blockchain.Genesis()
	b1 := blockchain.NewBlock(g, 0, 0, nil, false)
	b2 := blockchain.NewBlock(b1, 0, time.Second, nil, false)
	// Node 0 has both blocks; node 1 receives only the child directly.
	if _, err := net.Nodes[0].Tree.Add(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Nodes[0].Tree.Add(b2); err != nil {
		t.Fatal(err)
	}
	net.handleBlock(1, 0, b2, 0)
	if orphanCount(net.Nodes[1]) != 1 {
		t.Fatalf("orphan count = %d, want 1", orphanCount(net.Nodes[1]))
	}
	net.Engine.Run(time.Hour)
	if net.Nodes[1].Height() != 2 {
		t.Errorf("node 1 height = %d, want 2 after orphan resolution", net.Nodes[1].Height())
	}
	if orphanCount(net.Nodes[1]) != 0 {
		t.Errorf("orphans remain: %d", orphanCount(net.Nodes[1]))
	}
}

func TestCounterfeitBlockDoesNotAdvanceRefTip(t *testing.T) {
	net := newTestNetwork(t, 10, Config{FailureRate: 1e-12}, 5)
	g := blockchain.Genesis()
	fake := blockchain.NewBlock(g, 9, 0, nil, true)
	if err := net.Publish(0, fake); err != nil {
		t.Fatal(err)
	}
	if net.RefHeight() != 0 {
		t.Error("counterfeit block advanced the reference tip")
	}
}

func TestPublishErrors(t *testing.T) {
	net := newTestNetwork(t, 10, Config{}, 5)
	if err := net.Publish(0, nil); err == nil {
		t.Error("nil block accepted")
	}
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(-1, b); err == nil {
		t.Error("out-of-range origin accepted")
	}
}

// orphanCount returns the number of orphan blocks n has stashed.
func orphanCount(n *Node) int {
	total := 0
	for _, bs := range n.orphans {
		total += len(bs)
	}
	return total
}

func TestLagBuckets(t *testing.T) {
	var lb LagBuckets
	for _, behind := range []int{0, 0, 1, 2, 3, 4, 5, 10, 11, 100} {
		lb.Add(behind)
	}
	if lb.Synced != 2 || lb.Behind1 != 1 || lb.Behind2to4 != 3 || lb.Behind5to10 != 2 || lb.Behind10plus != 2 {
		t.Errorf("buckets = %+v", lb)
	}
	if lb.Total() != 10 {
		t.Errorf("Total = %d", lb.Total())
	}
}

func TestTrickleSlowerThanDiffusion(t *testing.T) {
	// Ablation sanity: trickle spreading takes longer to reach the whole
	// network than diffusion with comparable parameters.
	reachTime := func(spreading Spreading) time.Duration {
		net := newTestNetwork(t, 100, Config{
			FailureRate:     1e-12,
			Spreading:       spreading,
			MeanRelayDelay:  2 * time.Second,
			TrickleInterval: 10 * time.Second,
		}, 17)
		b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
		if err := net.Publish(0, b); err != nil {
			t.Fatal(err)
		}
		step := time.Second
		for now := step; now < time.Hour; now += step {
			net.Engine.Run(now)
			all := true
			for _, node := range net.Nodes {
				if node.Height() != 1 {
					all = false
					break
				}
			}
			if all {
				return now
			}
		}
		t.Fatal("block never reached all nodes")
		return 0
	}
	diff := reachTime(Diffusion)
	trick := reachTime(Trickle)
	if trick <= diff {
		t.Errorf("trickle (%v) should be slower than diffusion (%v)", trick, diff)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, Stats) {
		net := newTestNetwork(t, 50, Config{}, 123)
		parent := blockchain.Genesis()
		for h := 1; h <= 3; h++ {
			b := blockchain.NewBlock(parent, 0, net.Engine.Now(), nil, false)
			if err := net.Publish(0, b); err != nil {
				t.Fatal(err)
			}
			net.Engine.Run(net.Engine.Now() + 10*time.Minute)
			parent = b
		}
		synced := net.LagHistogram().Synced
		return synced, net.MsgStats()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 || m1 != m2 {
		t.Errorf("runs with identical seeds diverged: %d/%+v vs %d/%+v", s1, m1, s2, m2)
	}
}
