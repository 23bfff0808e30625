package attack

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockchain"
	"repro/internal/mining"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The 51% scenario (§V-A implications): "By isolating a majority of the
// network's hash power, the attacker can launch the 51% attack on Bitcoin
// which will grant him a permanent control over the blockchain." The
// attacker first uses the spatial attack to cut a fraction of honest hash
// power off the network, then mines privately; if his effective share
// exceeds what remains connected, his chain grows faster and, once
// published, rewrites the public history.

// MajorityConfig parameterizes the scenario.
type MajorityConfig struct {
	// AttackerShare is the attacker's own fraction of the original total
	// hash rate.
	AttackerShare float64
	// IsolatedShare is the honest fraction the spatial attack disconnected
	// (e.g. 0.657 after hijacking Table IV's three ASes).
	IsolatedShare float64
	// MineFor is the private-mining window.
	MineFor time.Duration
	// Seed drives the attacker's private block arrivals.
	Seed int64
}

// Validate rejects impossible shares.
func (c MajorityConfig) Validate() error {
	if c.AttackerShare <= 0 || c.AttackerShare >= 1 {
		return fmt.Errorf("attack: attacker share %v outside (0,1)", c.AttackerShare)
	}
	if c.IsolatedShare < 0 || c.AttackerShare+c.IsolatedShare >= 1 {
		return fmt.Errorf("attack: attacker %v + isolated %v shares must stay below 1",
			c.AttackerShare, c.IsolatedShare)
	}
	if c.MineFor <= 0 {
		return errors.New("attack: MineFor must be positive")
	}
	return nil
}

// MajorityResult reports the race outcome.
type MajorityResult struct {
	// HonestShare is what remained connected (1 - attacker - isolated).
	HonestShare float64
	// AttackerBlocks and HonestBlocks are the chains' growth during the
	// race.
	AttackerBlocks, HonestBlocks int
	// AttackerWins is true when the private chain ended strictly longer.
	AttackerWins bool
	// ReorgDepth is the public-history rewrite depth after publication
	// (0 when the attacker lost and published nothing).
	ReorgDepth int
	// AdoptedBy counts up nodes whose best tip is the attacker's chain
	// after publication and propagation.
	AdoptedBy int
}

// ExecuteMajority51 runs the race on a live simulation. The simulation
// should be warmed up (some public history); honest mining continues at the
// reduced share while the attacker mines privately from the current public
// tip, then publishes if ahead.
func ExecuteMajority51(sim *netsim.Simulation, cfg MajorityConfig) (*MajorityResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &MajorityResult{HonestShare: 1 - cfg.AttackerShare - cfg.IsolatedShare}
	reg := sim.Obs().Registry()
	trace := sim.Obs().Tracer()

	// Fork point: the current public tip as seen by the best node.
	gateway := sim.Gateways()[0]
	forkBase := sim.Network.Nodes[gateway].Tree.Tip()
	trace.Emit(int64(sim.Engine.Now()), "attack", "majority_start",
		obs.Ffloat("attacker_share", cfg.AttackerShare),
		obs.Ffloat("isolated_share", cfg.IsolatedShare),
		obs.Fint("fork_base_height", int64(forkBase.Height)))

	// Honest network mines at its reduced share.
	sim.SetHonestShare(res.HonestShare)
	honestBase := sim.BlocksProduced()

	// The attacker's private chain: block arrivals are a Poisson process at
	// AttackerShare/600s; no network interaction until publication.
	rng := stats.NewRand(cfg.Seed)
	lambda := cfg.AttackerShare / mining.BlockInterval.Seconds()
	private := []*blockchain.Block{}
	parent := forkBase
	for t := time.Duration(stats.Exponential(rng, lambda) * float64(time.Second)); t <= cfg.MineFor; t += time.Duration(stats.Exponential(rng, lambda) * float64(time.Second)) {
		b := blockchain.NewBlock(parent, -3, sim.Engine.Now()+t, sim.NewTxs(netsim.TxPerBlock), true)
		private = append(private, b)
		parent = b
	}
	res.AttackerBlocks = len(private)

	// Let the public race run for the same window.
	sim.Run(sim.Engine.Now() + cfg.MineFor)
	res.HonestBlocks = sim.BlocksProduced() - honestBase

	publicTip := sim.Network.Nodes[gateway].Tree.Tip()
	publicLead := publicTip.Height - forkBase.Height
	res.AttackerWins = res.AttackerBlocks > publicLead
	reg.Counter("attack.counterfeit_blocks").Add(uint64(res.AttackerBlocks))
	if !res.AttackerWins {
		trace.Emit(int64(sim.Engine.Now()), "attack", "majority_end",
			obs.Fbool("attacker_wins", false),
			obs.Fint("attacker_blocks", int64(res.AttackerBlocks)),
			obs.Fint("honest_blocks", int64(res.HonestBlocks)))
		sim.SetHonestShare(1)
		return res, nil
	}

	// Publication: the private chain enters at the gateway and floods the
	// network; every node reorgs past the fork point.
	res.ReorgDepth = publicLead
	for _, b := range private {
		if err := sim.Network.Publish(gateway, b); err != nil {
			return nil, fmt.Errorf("attack: publish private chain: %w", err)
		}
	}
	sim.Run(sim.Engine.Now() + time.Hour)
	tip := private[len(private)-1]
	for _, node := range sim.Network.Nodes {
		if node.Up && node.Tree.Tip().Hash == tip.Hash {
			res.AdoptedBy++
		}
	}
	reg.Counter("attack.victims_captured").Add(uint64(res.AdoptedBy))
	trace.Emit(int64(sim.Engine.Now()), "attack", "majority_end",
		obs.Fbool("attacker_wins", true),
		obs.Fint("reorg_depth", int64(res.ReorgDepth)),
		obs.Fint("adopted_by", int64(res.AdoptedBy)))
	sim.ObserveSync()
	sim.SetHonestShare(1)
	return res, nil
}
