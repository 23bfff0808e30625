package p2p

import (
	"sort"
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/stats"
)

// dropAll is a FaultInjector that kills every message.
type dropAll struct{}

func (dropAll) Intercept(from, to NodeID, now time.Duration) FaultVerdict {
	return FaultVerdict{Drop: true}
}

func TestFaultInjectorDropsSuppressDelivery(t *testing.T) {
	net := newTestNetwork(t, 30, Config{FailureRate: 1e-12, Faults: dropAll{}}, 3)
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(0, b); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(time.Hour)
	for i := 1; i < 30; i++ {
		if net.Nodes[i].Height() != 0 {
			t.Fatalf("node %d received a block through a dead fault injector", i)
		}
	}
	if net.MsgStats().Faulted == 0 {
		t.Error("no messages accounted as faulted")
	}
}

// delayOnly injects a fixed extra delay on every message and counts calls.
type delayOnly struct{ calls *int }

func (d delayOnly) Intercept(from, to NodeID, now time.Duration) FaultVerdict {
	*d.calls++
	return FaultVerdict{ExtraDelay: 30 * time.Second}
}

func TestFaultInjectorDelayStillDelivers(t *testing.T) {
	calls := 0
	net := newTestNetwork(t, 30, Config{FailureRate: 1e-12, Faults: delayOnly{&calls}}, 3)
	b := blockchain.NewBlock(blockchain.Genesis(), 0, 0, nil, false)
	if err := net.Publish(0, b); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(2 * time.Hour)
	if calls == 0 {
		t.Fatal("injector never consulted")
	}
	for i, node := range net.Nodes {
		if node.Height() != 1 {
			t.Fatalf("node %d height = %d under delay-only injector", i, node.Height())
		}
	}
	if net.MsgStats().Faulted != 0 {
		t.Errorf("delay-only injector accounted %d faulted drops", net.MsgStats().Faulted)
	}
}

func TestRewirePeersKeepsInvariants(t *testing.T) {
	net := newTestNetwork(t, 40, Config{}, 9)
	const id = NodeID(4)
	before := net.Neighbors(id)
	net.RewirePeers(id, stats.NewRand(99))
	after := net.Neighbors(id)
	if len(after) == 0 {
		t.Fatal("rewired node has no neighbors")
	}
	if !sort.SliceIsSorted(after, func(i, j int) bool { return after[i] < after[j] }) {
		t.Errorf("adjacency not sorted after rewire: %v", after)
	}
	seen := map[NodeID]bool{}
	for _, p := range after {
		if p == id {
			t.Error("node rewired to itself")
		}
		if seen[p] {
			t.Errorf("duplicate neighbor %d after rewire", p)
		}
		seen[p] = true
		// Undirected edge: the peer must list us back.
		found := false
		for _, q := range net.Neighbors(p) {
			if q == id {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("neighbor %d does not list %d back", p, id)
		}
	}
	// Same seed, same starting graph ⇒ same rewire outcome.
	net2 := newTestNetwork(t, 40, Config{}, 9)
	net2.RewirePeers(id, stats.NewRand(99))
	after2 := net2.Neighbors(id)
	if len(after) != len(after2) {
		t.Fatalf("rewire nondeterministic: %v vs %v", after, after2)
	}
	for i := range after {
		if after[i] != after2[i] {
			t.Fatalf("rewire nondeterministic: %v vs %v", after, after2)
		}
	}
	_ = before
}
