package p2p

import (
	"math/rand"
	"slices"
	"time"
)

// FaultVerdict is the outcome of consulting the fault injector for one
// message about to be scheduled.
type FaultVerdict struct {
	// Drop discards the message (counted in Stats.Faulted, separate from
	// the simulator's own random-failure drops).
	Drop bool
	// Duplicate delivers a second copy of the message, with its own
	// independently sampled relay delay — the at-least-once behaviour of a
	// flaky transport retransmitting after a lost ack.
	Duplicate bool
	// ExtraDelay is added on top of the normal relay delay (both copies of
	// a duplicated message are delayed).
	ExtraDelay time.Duration
}

// FaultInjector intercepts every message the network schedules, after the
// attacker link policy and before the random failure model. The injector
// owns its randomness (internal/faults derives SplitMix64 streams from its
// own seed) so installing one never re-orders draws from the simulation
// rng. A nil injector — the default — costs one nil check per send.
type FaultInjector interface {
	Intercept(from, to NodeID, now time.Duration) FaultVerdict
}

// RewirePeers re-picks a node's outbound peer set, modelling the peer
// re-discovery of a restarting node: a restarted bitcoind re-dials from
// addrman rather than resuming its previous connections, uniformly at
// random whatever Config.SameASBias says. Undirected edges that existed
// only because of this node's old outbound picks are removed; edges backed
// by another node's outbound connection to this node survive, exactly as
// the inbound side of a real restart does. The caller supplies the rng
// (fault injectors pass one derived from their own churn stream).
func (n *Network) RewirePeers(id NodeID, rng *rand.Rand) {
	node := n.Nodes[id]
	for _, p := range node.Peers {
		if !slices.Contains(n.Nodes[p].Peers, id) {
			n.removeAdj(id, p)
			n.removeAdj(p, id)
		}
	}
	node.Peers = drawPeers(node.Peers, rng, id, len(n.Nodes), n.cfg.PeerCount, 0, nil)
	for _, p := range node.Peers {
		n.addAdj(id, p)
		n.addAdj(p, id)
	}
}

// addAdj inserts an undirected relay edge end, keeping the row sorted and
// duplicate-free.
func (n *Network) addAdj(a, b NodeID) {
	if i, found := slices.BinarySearch(n.adj[a], b); !found {
		n.adj[a] = slices.Insert(n.adj[a], i, b)
	}
}

// removeAdj deletes an undirected relay edge end.
func (n *Network) removeAdj(a, b NodeID) {
	if i, found := slices.BinarySearch(n.adj[a], b); found {
		n.adj[a] = slices.Delete(n.adj[a], i, i+1)
	}
}
