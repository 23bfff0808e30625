package p2p

import (
	"slices"
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestNewNetworkWithGraph builds a network over an explicit outbound graph.
func TestNewNetworkWithGraph(t *testing.T) {
	engine := &sim.Engine{}
	rng := stats.NewRand(1)
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{})
	}
	// A line: 0-1-2-3.
	outbound := [][]NodeID{{1}, {2}, {3}, {}}
	net, err := NewNetwork(engine, nodes, Config{FailureRate: 1e-9}, rng, outbound)
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

// TestNewNetworkWithGraphValidation: NewNetwork rejects a malformed
// explicit outbound graph, and checks engine and node count with one given.
func TestNewNetworkWithGraphValidation(t *testing.T) {
	engine := &sim.Engine{}
	nodes := []*Node{NewNode(0, Profile{}), NewNode(1, Profile{})}
	tests := []struct {
		name     string
		engine   *sim.Engine
		nodes    []*Node
		outbound [][]NodeID
		wantErr  bool
	}{
		{"row mismatch", engine, nodes, [][]NodeID{{1}}, true},
		{"self loop", engine, nodes, [][]NodeID{{0}, {0}}, true},
		{"out of range", engine, nodes, [][]NodeID{{7}, {0}}, true},
		{"negative", engine, nodes, [][]NodeID{{-1}, {0}}, true},
		{"nil engine", nil, nodes, [][]NodeID{{1}, {0}}, true},
		{"one node", engine, nodes[:1], [][]NodeID{{}}, true},
		{"ok", engine, nodes, [][]NodeID{{1}, {0}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewNetwork(tt.engine, tt.nodes, Config{}, stats.NewRand(1), tt.outbound)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// outInClosure is the reference relay adjacency: for every node, the
// sorted, duplicate-free union of its outbound and inbound peers.
func outInClosure(nodes []*Node) [][]NodeID {
	sets := make([]map[NodeID]bool, len(nodes))
	for i := range sets {
		sets[i] = map[NodeID]bool{}
	}
	for i, node := range nodes {
		for _, p := range node.Peers {
			sets[i][p] = true
			sets[p][NodeID(i)] = true
		}
	}
	adj := make([][]NodeID, len(nodes))
	for i, set := range sets {
		for p := range set {
			adj[i] = append(adj[i], p)
		}
		slices.Sort(adj[i])
	}
	return adj
}

// checkRelayGraph fails unless every node's Neighbors equal the out ∪ in
// closure of the current outbound rows.
func checkRelayGraph(t *testing.T, net *Network) {
	t.Helper()
	for i, want := range outInClosure(net.Nodes) {
		if got := net.Neighbors(NodeID(i)); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestRelayGraphIsOutInClosure: an explicit graph and a random one both
// relay over the sorted, duplicate-free closure of outbound ∪ inbound, an
// explicit graph keeps its rows exactly as given (repeats included, as the
// cascade plan's builder can produce), and RewirePeers keeps the closure
// exact in every row, not only the rewired node's.
func TestRelayGraphIsOutInClosure(t *testing.T) {
	nodes := make([]*Node, 5)
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i), Profile{})
	}
	outbound := [][]NodeID{{1, 1, 2}, {0, 3}, {4, 1, 4}, {}, {0, 2}}
	net, err := NewNetwork(&sim.Engine{}, nodes, Config{}, stats.NewRand(1), outbound)
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if !slices.Equal(node.Peers, outbound[i]) {
			t.Errorf("node %d Peers = %v, want the row %v as given", i, node.Peers, outbound[i])
		}
	}
	checkRelayGraph(t, net)
	if got := net.Neighbors(0); !slices.Equal(got, []NodeID{1, 2, 4}) {
		t.Errorf("Neighbors(0) = %v, want [1 2 4]", got)
	}

	random := newTestNetwork(t, 60, Config{}, 3)
	checkRelayGraph(t, random)
	for id := NodeID(0); id < 60; id += 7 {
		random.RewirePeers(id, stats.NewRand(int64(id)))
		checkRelayGraph(t, random)
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
	net, err := NewNetwork(engine, nodes, Config{SameASBias: 0.9}, rng, nil)
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
	net2, err := NewNetwork(&sim.Engine{}, nodes, Config{}, rng2, nil)
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
	if _, err := NewNetwork(engine, nodes, Config{SameASBias: -0.1}, stats.NewRand(1), nil); err == nil {
		t.Error("negative bias accepted")
	}
	if _, err := NewNetwork(engine, nodes, Config{SameASBias: 1.5}, stats.NewRand(1), nil); err == nil {
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
	net, err := NewNetwork(engine, nodes, Config{FailureRate: 1e-9}, rng, nil)
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
