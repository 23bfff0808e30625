// Package defense implements the countermeasures of §VI: BlockAware (nodes
// detect that they have not seen a block for longer than the 600 s block
// interval and query fresh peers), stratum-server dispersal across ASes
// (raising the spatial attack's cost on mining pools), and route guarding
// (bogus-route purging and valid-route promotion against BGP hijacks).
package defense

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/stats"
)

// The monitor's settings: the paper's tc - tl > 600 s staleness trigger
// (the fixed Bitcoin block interval), a self-check every minute, and four
// random fresh peers queried by a triggered node.
const (
	staleAfter = 600 * time.Second
	checkEvery = 60 * time.Second
	queryPeers = 4
)

// BlockAwareConfig parameterizes the BlockAware monitor.
type BlockAwareConfig struct {
	// Seed drives peer selection.
	Seed int64
}

// BlockAware is the §VI monitor running over a simulation. A triggered node
// opens fresh connections to random nodes and asks for their latest block.
// Fresh connections are modelled as policy-bypassing deliveries: a temporal
// attacker controls a victim's existing peers, not the whole Internet, so
// new outbound connections escape the eclipse. (A full BGP cut would also
// capture new connections — which is why BlockAware helps against temporal
// but not spatial partitioning, as the paper's countermeasure discussion
// implies.)
type BlockAware struct {
	sim     *netsim.Simulation
	rng     *rand.Rand
	enabled map[p2p.NodeID]bool
	// Triggers counts staleness detections; Rescues counts queries that
	// delivered a strictly better tip.
	Triggers int
	Rescues  int
	stopped  bool
}

// NewBlockAware attaches the monitor to a simulation for the given node set
// (nil = every node).
func NewBlockAware(sim *netsim.Simulation, nodes []p2p.NodeID, cfg BlockAwareConfig) (*BlockAware, error) {
	if sim == nil {
		return nil, errors.New("defense: nil simulation")
	}
	ba := &BlockAware{
		sim:     sim,
		rng:     stats.NewRand(cfg.Seed),
		enabled: map[p2p.NodeID]bool{},
	}
	if nodes == nil {
		for _, n := range sim.Network.Nodes {
			ba.enabled[n.ID] = true
		}
	} else {
		for _, id := range nodes {
			ba.enabled[id] = true
		}
	}
	return ba, nil
}

// Start schedules the periodic self-checks on the simulation's clock.
func (ba *BlockAware) Start() {
	ba.stopped = false
	ba.scheduleCheck()
}

// Stop halts further checks after the next scheduled one fires.
func (ba *BlockAware) Stop() { ba.stopped = true }

func (ba *BlockAware) scheduleCheck() {
	err := ba.sim.Engine.After(checkEvery, func(now time.Duration) {
		if ba.stopped {
			return
		}
		ba.checkAll(now)
		ba.scheduleCheck()
	})
	if err != nil {
		panic(fmt.Sprintf("defense: schedule: %v", err))
	}
}

// checkAll runs the tc - tl > 600 s test on every enabled node and
// queries fresh peers for the stale ones.
func (ba *BlockAware) checkAll(now time.Duration) {
	net := ba.sim.Network
	for _, node := range net.Nodes {
		if !ba.enabled[node.ID] || !node.Up {
			continue
		}
		if now-node.LastBlockAt <= staleAfter {
			continue
		}
		ba.Triggers++
		for range queryPeers {
			peer := p2p.NodeID(ba.rng.Intn(len(net.Nodes)))
			if peer == node.ID || !net.Nodes[peer].Up {
				continue
			}
			tip := net.Nodes[peer].Tree.Tip()
			if tip.Height <= node.Height() {
				continue
			}
			// Fresh connection: exempt from the attacker's link policy, so
			// the follow-up ancestor fetches also get through.
			net.AddBypassLink(node.ID, peer)
			delay := time.Duration(stats.Exponential(ba.rng, 1) * float64(time.Second))
			if err := net.InjectBlock(node.ID, peer, tip, delay); err == nil {
				ba.Rescues++
			}
		}
	}
}
