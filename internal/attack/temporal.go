package attack

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockchain"
	"repro/internal/mining"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// temporalSeedSalt namespaces the attacker's connection/mining stream off
// the simulation seed, away from the gossip and fault-injection streams
// (DeriveSeed treats it as the stream index).
const temporalSeedSalt = 0x7E3A

// connectRate is λ, per second, of the exponential delay before the
// attacker's direct connection to each victim comes up (Eq. 1; Table VI
// sweeps λ over 0.4-0.9 analytically).
const connectRate = 0.5

// Temporal partitioning (§V-B, Figure 5): the attacker identifies nodes
// that are behind the main chain, cuts their links to the synced network,
// and feeds them a counterfeit branch mined with the attacker's own hash
// power. Isolated nodes accept it because it extends beyond their stale
// view, and they attribute the slower block cadence to network issues.

// TemporalConfig parameterizes an attack run.
type TemporalConfig struct {
	// AttackerShare is the attacker's fraction of total network hash rate
	// (the paper simulates 0.30).
	AttackerShare float64
	// MinLag selects victims at least this many blocks behind (the threat
	// model targets nodes 1-5 blocks behind).
	MinLag int
	// MaxVictims caps the victim set (0 = unlimited).
	MaxVictims int
	// HoldFor is how long the partition is sustained before the attacker
	// releases it (or is discovered).
	HoldFor time.Duration
	// HealFor is how long the network runs after release before damage is
	// measured.
	HealFor time.Duration
	// TrackPayment, when set, plants a designated payment transaction in
	// the first counterfeit block — the double-spend scenario: a merchant
	// inside the partition sees the payment confirm and deepen, and when
	// the partition heals the payment vanishes with the branch (§V-A/V-B
	// implications).
	TrackPayment bool
}

// Validate rejects unusable parameters.
func (c TemporalConfig) Validate() error {
	if c.AttackerShare <= 0 || c.AttackerShare >= 1 {
		return fmt.Errorf("attack: attacker share %v outside (0,1)", c.AttackerShare)
	}
	if c.MinLag < 0 {
		return fmt.Errorf("attack: negative min lag %d", c.MinLag)
	}
	if c.HoldFor <= 0 {
		return errors.New("attack: HoldFor must be positive")
	}
	if c.HealFor < 0 {
		return errors.New("attack: negative HealFor")
	}
	return nil
}

// TemporalResult reports the attack outcome.
type TemporalResult struct {
	Victims []p2p.NodeID
	// CounterfeitBlocks the attacker mined during the hold.
	CounterfeitBlocks int
	// CapturedAtRelease is how many victims followed a counterfeit tip when
	// the partition was released (the soft fork of Figure 5).
	CapturedAtRelease int
	// MaxForkDepth is the deepest counterfeit branch any victim followed.
	MaxForkDepth int
	// RecoveredAfterHeal counts victims back on the honest chain after the
	// healing window.
	RecoveredAfterHeal int
	// ReversedTxs is the total number of transactions reversed across
	// victims when their counterfeit branches were abandoned.
	ReversedTxs int
	// HonestBlocksDuringHold is how many blocks the (reduced) honest
	// network produced while the partition held.
	HonestBlocksDuringHold int
	// Double-spend accounting (only when TrackPayment was set):
	// PaymentTx is the planted transaction, MerchantConfirmations is how
	// many blocks deep the merchant (the victim with the best view) saw it
	// at release, and PaymentReversed reports whether healing erased it
	// from the merchant's best chain — i.e. the double-spend window closed
	// with the merchant defrauded.
	PaymentTx             blockchain.TxID
	MerchantConfirmations int
	PaymentReversed       bool
}

// FindVictims returns the up nodes at least minLag blocks behind the
// network reference tip — the crawler-visible vulnerable set the threat
// model assumes the adversary can enumerate ("obtaining this information is
// not challenging since various Bitcoin crawlers are available").
func FindVictims(sim *netsim.Simulation, minLag, max int) []p2p.NodeID {
	ref := sim.Network.RefHeight()
	var out []p2p.NodeID
	for _, node := range sim.Network.Nodes {
		if !node.Up || sim.IsGateway(node.ID) {
			continue
		}
		if node.BlocksBehind(ref) >= minLag {
			out = append(out, node.ID)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

// ExecuteTemporal runs the attack on the victims FindVictims picks by
// cfg.MinLag and cfg.MaxVictims (ExecuteTemporalOn).
func ExecuteTemporal(sim *netsim.Simulation, cfg TemporalConfig) (*TemporalResult, error) {
	return ExecuteTemporalOn(sim, cfg, FindVictims(sim, cfg.MinLag, cfg.MaxVictims))
}

// ExecuteTemporalOn runs the attack against a live simulation and an
// explicit victim set. The simulation should already have mining started
// and some history (the caller controls warm-up). The attacker:
//
//  1. installs a link policy cutting victim ↔ non-victim traffic,
//  2. reduces honest mining to (1 - AttackerShare) and mines a counterfeit
//     branch from the victims' lowest tip at AttackerShare rate,
//  3. releases the partition after HoldFor and lets the network heal.
func ExecuteTemporalOn(sim *netsim.Simulation, cfg TemporalConfig, victims []p2p.NodeID) (*TemporalResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(victims) == 0 {
		return nil, errors.New("attack: empty victim set")
	}
	reg := sim.Obs().Registry()
	trace := sim.Obs().Tracer()
	res := &TemporalResult{Victims: victims}
	isVictim := make(map[p2p.NodeID]bool, len(victims))
	for _, v := range victims {
		if sim.IsGateway(v) {
			return nil, fmt.Errorf("attack: node %d is a pool gateway; miners cannot be temporal prey", v)
		}
		isVictim[v] = true
	}

	// Partition: victim <-> non-victim links are cut both ways. The
	// attacker's own direct connections bypass this via InjectBlock.
	sim.Network.SetPolicy(func(from, to p2p.NodeID, _ time.Duration) bool {
		return isVictim[from] == isVictim[to]
	})

	// The honest network loses the attacker's share.
	sim.SetHonestShare(1 - cfg.AttackerShare)

	// Baseline damage counters before the attack.
	reversedBase := 0
	for _, v := range victims {
		reversedBase += sim.Network.Nodes[v].ReversedTxs
	}
	honestBlocksBase := sim.BlocksProduced()

	// Counterfeit branch root: the lowest victim tip. Every victim holds
	// this block (their views are prefixes of the honest chain), so the
	// branch attaches everywhere, and it overtakes the higher victims'
	// views as soon as it grows past them.
	origin := victims[0]
	minHeight := sim.Network.Nodes[origin].Tree.Height()
	maxHeight := minHeight
	for _, v := range victims[1:] {
		h := sim.Network.Nodes[v].Tree.Height()
		if h < minHeight {
			minHeight = h
		}
		if h > maxHeight {
			maxHeight, origin = h, v
		}
	}
	root, ok := sim.Network.Nodes[origin].Tree.AtHeight(minHeight)
	if !ok {
		return nil, fmt.Errorf("attack: origin lacks block at height %d", minHeight)
	}
	trace.Emit(int64(sim.Engine.Now()), "attack", "temporal_start",
		obs.Fint("victims", int64(len(victims))),
		obs.Fint("fork_base_height", int64(minHeight)),
		obs.Ffloat("attacker_share", cfg.AttackerShare))

	// The attacker connects to each victim after an exponential delay with
	// rate connectRate (the Eq. 1 model behind Table VI). The stream is
	// derived from the simulation seed so distinct studies draw distinct
	// attacker schedules (seeding off len(victims) correlated every study
	// with the same victim count).
	rng := stats.NewRand(parallel.DeriveSeed(sim.Config().Seed, temporalSeedSalt))
	start := sim.Engine.Now()
	connectedAt := make(map[p2p.NodeID]time.Duration, len(victims))
	for _, v := range victims {
		connectedAt[v] = start + time.Duration(stats.Exponential(rng, connectRate)*float64(time.Second))
	}

	// Attacker mining loop: exponential inter-block times at
	// AttackerShare/600s. Each counterfeit block is fed directly to every
	// connected victim (Figure 5: the attacker "feeds his copy of blocks to
	// vulnerable nodes"); victims also relay among themselves.
	releaseAt := start + cfg.HoldFor
	parent := root
	var paymentBlock blockchain.Hash
	paymentHeight := -1
	var scheduleCounterfeit func()
	scheduleCounterfeit = func() {
		lambda := cfg.AttackerShare / mining.BlockInterval.Seconds()
		delay := time.Duration(stats.Exponential(rng, lambda) * float64(time.Second))
		err := sim.Engine.After(delay, func(now time.Duration) {
			if now > releaseAt {
				return
			}
			txs := sim.NewTxs(netsim.TxPerBlock)
			b := blockchain.NewBlock(parent, -2, now, txs, true)
			if cfg.TrackPayment && paymentHeight < 0 {
				// The first counterfeit block carries the payment to the
				// merchant inside the partition.
				res.PaymentTx = txs[0]
				paymentBlock = b.Hash
				paymentHeight = b.Height
			}
			parent = b
			res.CounterfeitBlocks++
			reg.Counter("attack.counterfeit_blocks").Inc()
			trace.Emit(int64(now), "attack", "counterfeit_block",
				obs.Fint("height", int64(b.Height)))
			for _, v := range victims {
				feedDelay := time.Duration(0)
				if connectedAt[v] > now {
					feedDelay = connectedAt[v] - now
				}
				if err := sim.Network.InjectBlock(v, origin, b, feedDelay); err != nil {
					panic(fmt.Sprintf("attack: inject: %v", err))
				}
			}
			scheduleCounterfeit()
		})
		if err != nil {
			panic(fmt.Sprintf("attack: schedule counterfeit: %v", err))
		}
	}
	scheduleCounterfeit()

	// Hold the partition.
	sim.Run(releaseAt)

	// Measure capture at release.
	for _, v := range victims {
		tip := sim.Network.Nodes[v].Tree.Tip()
		if tip.Counterfeit {
			res.CapturedAtRelease++
			depth := counterfeitDepth(sim.Network.Nodes[v].Tree, tip)
			if depth > res.MaxForkDepth {
				res.MaxForkDepth = depth
			}
		}
	}
	res.HonestBlocksDuringHold = sim.BlocksProduced() - honestBlocksBase
	reg.Counter("attack.victims_captured").Add(uint64(res.CapturedAtRelease))
	reg.Gauge("attack.max_fork_depth").Set(float64(res.MaxForkDepth))
	trace.Emit(int64(sim.Engine.Now()), "attack", "temporal_release",
		obs.Fint("captured", int64(res.CapturedAtRelease)),
		obs.Fint("max_fork_depth", int64(res.MaxForkDepth)),
		obs.Fint("counterfeit_blocks", int64(res.CounterfeitBlocks)),
		obs.Fint("honest_blocks", int64(res.HonestBlocksDuringHold)))
	sim.ObserveSync()

	// Double-spend accounting at release: how deep the merchant saw the
	// payment confirm.
	merchant := sim.Network.Nodes[origin]
	if cfg.TrackPayment && paymentHeight >= 0 {
		if b, ok := merchant.Tree.AtHeight(paymentHeight); ok && b.Hash == paymentBlock {
			res.MerchantConfirmations = merchant.Tree.Height() - paymentHeight + 1
		}
	}

	// Release: restore links and full honest hash power; the longest
	// (honest) chain now reaches the victims and triggers their reorgs.
	sim.Network.SetPolicy(nil)
	sim.SetHonestShare(1)
	// Re-announce the honest tip into the former partition by having every
	// non-victim neighbor of a victim offer its tip. In the real network
	// this happens organically on reconnection; the simulator needs the
	// explicit nudge because inv messages are only sent on novelty.
	reannounceTips(sim, isVictim)
	sim.Run(sim.Engine.Now() + cfg.HealFor)

	for _, v := range victims {
		node := sim.Network.Nodes[v]
		if !node.Tree.Tip().Counterfeit {
			res.RecoveredAfterHeal++
		}
		res.ReversedTxs += node.ReversedTxs
	}
	res.ReversedTxs -= reversedBase

	// The double-spend closes if the healed merchant's best chain no longer
	// contains the payment block at its height.
	if cfg.TrackPayment && paymentHeight >= 0 {
		b, ok := merchant.Tree.AtHeight(paymentHeight)
		res.PaymentReversed = !ok || b.Hash != paymentBlock
	}
	reg.Counter("attack.reversed_txs").Add(uint64(res.ReversedTxs))
	trace.Emit(int64(sim.Engine.Now()), "attack", "temporal_end",
		obs.Fint("recovered", int64(res.RecoveredAfterHeal)),
		obs.Fint("reversed_txs", int64(res.ReversedTxs)),
		obs.Fbool("payment_reversed", res.PaymentReversed))
	sim.ObserveSync()
	return res, nil
}

// counterfeitDepth counts consecutive counterfeit blocks from the tip down.
func counterfeitDepth(tree *blockchain.Tree, tip *blockchain.Block) int {
	depth := 0
	for b := tip; b != nil && b.Counterfeit; {
		depth++
		parent, ok := tree.Get(b.Parent)
		if !ok {
			break
		}
		b = parent
	}
	return depth
}

// reannounceTips makes every honest neighbor of a victim re-offer its best
// tip, restarting propagation into the healed partition.
func reannounceTips(sim *netsim.Simulation, isVictim map[p2p.NodeID]bool) {
	net := sim.Network
	for _, node := range net.Nodes {
		if isVictim[node.ID] || !node.Up {
			continue
		}
		for _, nb := range net.Neighbors(node.ID) {
			if isVictim[nb] {
				net.OfferTip(node.ID, nb)
			}
		}
	}
}
