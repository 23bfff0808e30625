// Package spv models the lightweight-client layer of the paper's Figure 1:
// SPV/web wallets (the paper cites Blockchain.info's 2.3-5 million users)
// do not hold the chain themselves — they inherit whatever view their
// full-node provider has. When a partition attack misleads a full node,
// every lightweight client behind it transitively sees the counterfeit
// chain, which is how a 10^4-node attack surface leverages into 10^6-user
// impact (§II, §V-B implications).
package spv

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/stats"
)

// Client is one lightweight wallet bound to a providing full node.
type Client struct {
	ID       int
	Provider p2p.NodeID
}

// Fleet is a population of lightweight clients over a simulation.
type Fleet struct {
	sim     *netsim.Simulation
	clients []Client
	// perProvider caches client counts per full node.
	perProvider map[p2p.NodeID]int
}

// NewFleet attaches n lightweight clients to the simulation's full nodes.
// Providers are drawn with probability proportional to weight(node); a nil
// weight uses the node's uptime index (responsive, always-on nodes attract
// wallet backends), falling back to uniform when profiles carry no indices.
func NewFleet(sim *netsim.Simulation, n int, rng *rand.Rand, weight func(*p2p.Node) float64) (*Fleet, error) {
	if sim == nil {
		return nil, errors.New("spv: nil simulation")
	}
	if n <= 0 {
		return nil, fmt.Errorf("spv: fleet size %d must be positive", n)
	}
	if rng == nil {
		return nil, errors.New("spv: nil rng")
	}
	if weight == nil {
		weight = func(node *p2p.Node) float64 {
			if node.Profile.UptimeIndex > 0 {
				return node.Profile.UptimeIndex
			}
			return 1
		}
	}
	weights := make([]float64, len(sim.Network.Nodes))
	for i, node := range sim.Network.Nodes {
		if node.Up {
			weights[i] = weight(node)
		}
	}
	f := &Fleet{sim: sim, perProvider: map[p2p.NodeID]int{}}
	for i := 0; i < n; i++ {
		idx := stats.WeightedIndex(rng, weights)
		if idx < 0 {
			return nil, errors.New("spv: no up full nodes to attach to")
		}
		provider := p2p.NodeID(idx)
		f.clients = append(f.clients, Client{ID: i, Provider: provider})
		f.perProvider[provider]++
	}
	return f, nil
}

// Size returns the fleet size.
func (f *Fleet) Size() int { return len(f.clients) }

// ClientsOf returns how many clients a full node serves.
//
//lint:ignore unusedexport counts the wallets behind captured victims for the integration test TestTemporalPipeline
func (f *Fleet) ClientsOf(provider p2p.NodeID) int { return f.perProvider[provider] }

// Exposure summarizes the fleet's inherited view at a moment.
type Exposure struct {
	// Stale counts clients whose provider is >= 1 block behind the network
	// reference tip.
	Stale int
	// OnCounterfeit counts clients whose provider's best tip is an
	// attacker-produced block.
	OnCounterfeit int
	// ByLag histograms clients by their provider's lag bucket.
	ByLag p2p.LagBuckets
}

// Exposure computes the current inherited-view summary.
func (f *Fleet) Exposure() Exposure {
	var e Exposure
	ref := f.sim.Network.RefHeight()
	for _, c := range f.clients {
		node := f.sim.Network.Nodes[c.Provider]
		behind := node.BlocksBehind(ref)
		e.ByLag.Add(behind)
		if behind >= 1 {
			e.Stale++
		}
		if node.Tree.Tip().Counterfeit {
			e.OnCounterfeit++
		}
	}
	return e
}
