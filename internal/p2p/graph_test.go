package p2p

import (
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestNewNetworkWithGraph(t *testing.T) {
	engine := &sim.Engine{}
	rng := stats.NewRand(1)
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{})
	}
	// A line: 0-1-2-3.
	outbound := [][]NodeID{{1}, {2}, {3}, {}}
	net, err := NewNetworkWithGraph(engine, nodes, Config{FailureRate: 1e-9}, rng, outbound)
	if err != nil {
		t.Fatal(err)
	}
	// Undirected closure: node 1's neighbors are 0 and 2.
	nbrs := net.Neighbors(1)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Fatalf("neighbors(1) = %v", nbrs)
	}
	// A block from node 0 walks the line.
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(0, b); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(time.Hour)
	for i, node := range nodes {
		if node.Height() != 1 {
			t.Errorf("node %d height %d", i, node.Height())
		}
	}
}

func TestNewNetworkWithGraphValidation(t *testing.T) {
	engine := &sim.Engine{}
	rng := stats.NewRand(1)
	nodes := []*Node{NewNode(0, Profile{}), NewNode(1, Profile{})}
	tests := []struct {
		name     string
		outbound [][]NodeID
	}{
		{"row mismatch", [][]NodeID{{1}}},
		{"self loop", [][]NodeID{{0}, {0}}},
		{"out of range", [][]NodeID{{7}, {0}}},
		{"negative", [][]NodeID{{-1}, {0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNetworkWithGraph(engine, nodes, Config{}, rng, tt.outbound); err == nil {
				t.Error("invalid graph accepted")
			}
		})
	}
	if _, err := NewNetworkWithGraph(nil, nodes, Config{}, rng, [][]NodeID{{1}, {0}}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewNetworkWithGraph(engine, nodes[:1], Config{}, rng, [][]NodeID{{}}); err == nil {
		t.Error("single node accepted")
	}
}

func TestSameASBiasClustersPeers(t *testing.T) {
	engine := &sim.Engine{}
	rng := stats.NewRand(5)
	// Two equal ASes of 50 nodes each.
	nodes := make([]*Node, 100)
	for i := range nodes {
		asn := topology.ASN(1)
		if i >= 50 {
			asn = topology.ASN(2)
		}
		nodes[i] = NewNode(NodeID(i), Profile{ASN: asn})
	}
	net, err := NewNetwork(engine, nodes, Config{SameASBias: 0.9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sameAS, total := 0, 0
	for i, node := range net.Nodes {
		for _, p := range node.Peers {
			total++
			if nodes[i].Profile.ASN == nodes[p].Profile.ASN {
				sameAS++
			}
		}
	}
	frac := float64(sameAS) / float64(total)
	// Bias 0.9 with a 50% same-AS base rate: expect ~0.9+0.1*0.5 ≈ 0.95
	// intra-AS outbound edges; uniform would be ~0.5.
	if frac < 0.8 {
		t.Errorf("same-AS outbound fraction = %.2f under bias 0.9", frac)
	}

	// And without bias it stays near the base rate.
	rng2 := stats.NewRand(5)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), nodes[i].Profile)
	}
	net2, err := NewNetwork(&sim.Engine{}, nodes, Config{}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	sameAS, total = 0, 0
	for i, node := range net2.Nodes {
		for _, p := range node.Peers {
			total++
			if nodes[i].Profile.ASN == nodes[p].Profile.ASN {
				sameAS++
			}
		}
	}
	if frac := float64(sameAS) / float64(total); frac > 0.65 {
		t.Errorf("uniform same-AS fraction = %.2f, want ~0.5", frac)
	}
}

func TestSameASBiasValidation(t *testing.T) {
	engine := &sim.Engine{}
	nodes := []*Node{NewNode(0, Profile{}), NewNode(1, Profile{})}
	if _, err := NewNetwork(engine, nodes, Config{SameASBias: -0.1}, stats.NewRand(1)); err == nil {
		t.Error("negative bias accepted")
	}
	if _, err := NewNetwork(engine, nodes, Config{SameASBias: 1.5}, stats.NewRand(1)); err == nil {
		t.Error("bias > 1 accepted")
	}
}

func TestBypassLinkCrossesPolicy(t *testing.T) {
	engine := &sim.Engine{}
	rng := stats.NewRand(9)
	nodes := make([]*Node, 10)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{})
	}
	net, err := NewNetwork(engine, nodes, Config{FailureRate: 1e-9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Block everything.
	net.SetPolicy(func(_, _ NodeID, _ time.Duration) bool { return false })
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if _, err := nodes[0].Tree.Add(b); err != nil {
		t.Fatal(err)
	}
	// Without a bypass, an offer is blocked.
	net.OfferTip(0, 5)
	net.Engine.Run(time.Hour)
	if nodes[5].Height() != 0 {
		t.Fatal("policy did not block the offer")
	}
	// With a bypass link, the same offer goes through.
	net.AddBypassLink(0, 5)
	net.OfferTip(0, 5)
	net.Engine.Run(2 * time.Hour)
	if nodes[5].Height() != 1 {
		t.Errorf("bypass link did not deliver: height %d", nodes[5].Height())
	}
}
