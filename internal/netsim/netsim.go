// Package netsim wires the substrates into a full Bitcoin network
// simulation: a population of full nodes (p2p) hosted across ASes and
// organizations (topology), mining pools producing blocks (mining), and a
// shared discrete-event clock (sim). It exposes the attacker hooks the
// paper's four partitioning attacks need — block links across a BGP cut,
// eclipse a node set, and inject counterfeit blocks into an isolated
// partition.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockchain"
	"repro/internal/faults"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Config assembles a simulation.
type Config struct {
	// Nodes is the simulated full-node population size. Ignored when
	// Population is set.
	Nodes int
	// Population, when non-nil, is the node population the simulation runs
	// over — e.g. one generated by the dataset package with realistic
	// AS/organization profiles — instead of Nodes profile-less nodes.
	Population []*p2p.Node
	// Outbound, when non-nil, is the explicit outbound-peer graph:
	// Outbound[i] lists node i's outbound peers (see
	// p2p.NewNetworkWithGraph). Nil wires the default random peer graph.
	Outbound [][]p2p.NodeID
	// Gossip configures the p2p layer (peer count, relay delay, failures).
	Gossip p2p.Config
	// Pools is the mining roster; block production is attributed to pools
	// proportionally to hash share. If nil, a single 100%-share pool is used.
	Pools []mining.Pool
	// TxPerBlock is how many synthetic transactions each block confirms,
	// used for reorg-damage accounting. Default 16.
	TxPerBlock int
	// GatewayNodes pins each pool's block-publishing gateway to a specific
	// node (index i for pool i). Experiments use this to control where
	// honest blocks enter the network; when shorter than the pool roster,
	// remaining gateways are drawn randomly.
	GatewayNodes []p2p.NodeID
	// Seed fixes the run.
	Seed int64
	// Obs attaches the observability layer to the whole simulation — it is
	// propagated into Gossip.Obs unless that is set separately. Nil (the
	// default) disables instrumentation with byte-identical output.
	Obs *obs.Observer
	// Faults selects the fault scenario (DESIGN.md §10): node churn, link
	// faults, and message chaos realized by internal/faults. The zero
	// value — the default — injects nothing and leaves the simulation
	// byte-identical to a faultless build. Pool gateways never churn: they
	// are the stable honest core the partition attacks must treat as such.
	Faults faults.Scenario
	// EventBudget, when non-zero, arms the engine watchdog (DESIGN.md §11):
	// a run that processes this many events is cancelled deterministically
	// and RunChecked reports an error wrapping checkpoint.ErrBudget, so a
	// non-terminating fault scenario cannot hang a trial.
	EventBudget uint64
}

func (c Config) withDefaults() Config {
	if c.TxPerBlock == 0 {
		c.TxPerBlock = 16
	}
	if len(c.Pools) == 0 {
		c.Pools = []mining.Pool{{Name: "solo", HashShare: 1.0}}
	}
	return c
}

// Simulation is a running network.
type Simulation struct {
	Engine  *sim.Engine
	Network *p2p.Network
	Pools   *mining.PoolSet

	cfg    Config
	rng    *rand.Rand
	nextTx blockchain.TxID

	// poolNodes maps each pool index to the node that publishes its blocks
	// (a stand-in for the pool's gateway full node).
	poolNodes []p2p.NodeID
	// honestShare is the fraction of hash rate currently connected to the
	// main network; attacks reduce it.
	honestShare float64
	// producedBlocks counts blocks mined by the honest process.
	producedBlocks int
	miningStopped  bool

	// Pre-resolved obs handles (all nil when observability is off).
	obsBlocksMined *obs.Counter
	obsTrace       *obs.Tracer
}

// FromConfig builds a simulation: over Config.Population when set (e.g.
// dataset-generated nodes with realistic AS/organization profiles), over
// cfg.Nodes fresh profile-less nodes otherwise, and over the explicit
// Config.Outbound peer graph when one is given.
func FromConfig(cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	nodes := cfg.Population
	if nodes == nil {
		if cfg.Nodes < 2 {
			return nil, errors.New("netsim: need at least two nodes")
		}
		nodes = make([]*p2p.Node, cfg.Nodes)
		for i := range nodes {
			nodes[i] = p2p.NewNode(p2p.NodeID(i), p2p.Profile{Family: topology.FamilyIPv4})
		}
	}
	return newWithNodes(cfg, nodes, stats.NewRand(cfg.Seed), cfg.Outbound)
}

// faultsSeedSalt namespaces the fault-injection streams off the simulation
// seed, so enabling a scenario never perturbs any existing simulation draw.
const faultsSeedSalt = 0xFA17

func newWithNodes(cfg Config, nodes []*p2p.Node, rng *rand.Rand, outbound [][]p2p.NodeID) (*Simulation, error) {
	engine := &sim.Engine{}
	engine.SetEventBudget(cfg.EventBudget)
	if cfg.Obs != nil && cfg.Gossip.Obs == nil {
		cfg.Gossip.Obs = cfg.Obs
	}
	var injector *faults.Injector
	if cfg.Faults.Enabled() {
		var err error
		injector, err = faults.NewInjector(cfg.Faults,
			parallel.DeriveSeed(cfg.Seed, faultsSeedSalt), cfg.Gossip.Obs)
		if err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		cfg.Gossip.Faults = injector
	}
	var network *p2p.Network
	var err error
	if outbound != nil {
		network, err = p2p.NewNetworkWithGraph(engine, nodes, cfg.Gossip, rng, outbound)
	} else {
		network, err = p2p.NewNetwork(engine, nodes, cfg.Gossip, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	pools, err := mining.NewPoolSet(cfg.Pools)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	s := &Simulation{
		Engine:      engine,
		Network:     network,
		Pools:       pools,
		cfg:         cfg,
		rng:         rng,
		honestShare: pools.TotalShare(),
		nextTx:      1,
	}
	if o := cfg.Gossip.Obs; o != nil {
		s.obsBlocksMined = o.Registry().Counter("netsim.blocks_mined")
		s.obsTrace = o.Tracer()
	}
	// Assign each pool a gateway node: pinned where configured, random
	// otherwise.
	s.poolNodes = make([]p2p.NodeID, pools.Len())
	for i := range s.poolNodes {
		if i < len(cfg.GatewayNodes) {
			g := cfg.GatewayNodes[i]
			if int(g) < 0 || int(g) >= len(nodes) {
				return nil, fmt.Errorf("netsim: gateway %d out of range", g)
			}
			s.poolNodes[i] = g
			continue
		}
		s.poolNodes[i] = p2p.NodeID(rng.Intn(len(nodes)))
	}
	// Churn starts once the gateways are known: pool gateways are exempt
	// (the stable honest core), everyone else may flap.
	if injector != nil {
		injector.StartChurn(engine, network, s.IsGateway)
	}
	return s, nil
}

// Config returns the effective configuration.
func (s *Simulation) Config() Config { return s.cfg }

// Gateways returns the nodes that publish each pool's blocks. Gateways are
// by construction synced, well-connected nodes; partition attacks must
// treat them as part of the honest core, not as prey.
func (s *Simulation) Gateways() []p2p.NodeID {
	return append([]p2p.NodeID(nil), s.poolNodes...)
}

// IsGateway reports whether the node publishes blocks for some pool.
func (s *Simulation) IsGateway(id p2p.NodeID) bool {
	for _, g := range s.poolNodes {
		if g == id {
			return true
		}
	}
	return false
}

// SetHonestShare adjusts the connected hash share (attacks that isolate
// stratum servers call this).
func (s *Simulation) SetHonestShare(f float64) { s.honestShare = f }

// BlocksProduced returns how many honest blocks were mined so far.
func (s *Simulation) BlocksProduced() int { return s.producedBlocks }

// NewTxs mints n fresh transaction IDs.
func (s *Simulation) NewTxs(n int) []blockchain.TxID {
	txs := make([]blockchain.TxID, n)
	for i := range txs {
		txs[i] = s.nextTx
		s.nextTx++
	}
	return txs
}

// StartMining schedules the honest block-production process: exponential
// inter-block times at rate honestShare/600s, each block extending the tip
// of the winning pool's gateway node and published there.
func (s *Simulation) StartMining() {
	s.miningStopped = false
	s.scheduleNextBlock()
}

// StopMining halts block production after the next scheduled block fires.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *Simulation) StopMining() { s.miningStopped = true }

func (s *Simulation) scheduleNextBlock() {
	if s.honestShare <= 0 {
		return
	}
	lambda := s.honestShare / mining.BlockInterval.Seconds()
	delay := time.Duration(stats.Exponential(s.rng, lambda) * float64(time.Second))
	err := s.Engine.After(delay, func(now time.Duration) {
		if s.miningStopped {
			return
		}
		s.mineOne(now)
		s.scheduleNextBlock()
	})
	if err != nil {
		panic(fmt.Sprintf("netsim: schedule mining: %v", err))
	}
}

// mineOne produces one block at the winning pool's gateway node, extending
// that node's current best tip (so a partitioned gateway naturally extends
// its partition's chain — how real forks persist).
func (s *Simulation) mineOne(now time.Duration) {
	winner := s.Pools.PickWinner(s.rng, nil)
	if winner < 0 {
		return
	}
	gateway := s.poolNodes[winner]
	node := s.Network.Nodes[gateway]
	parent := node.Tree.Tip()
	b := blockchain.NewBlock(parent, winner, now, s.NewTxs(s.cfg.TxPerBlock), false)
	s.producedBlocks++
	s.obsBlocksMined.Inc()
	s.obsTrace.Emit(int64(now), "netsim", "block_mined",
		obs.Fint("pool", int64(winner)),
		obs.Fint("gateway", int64(gateway)),
		obs.Fint("height", int64(b.Height)))
	if err := s.Network.Publish(gateway, b); err != nil {
		panic(fmt.Sprintf("netsim: publish: %v", err))
	}
}

// Run advances the simulation to the given virtual time.
func (s *Simulation) Run(until time.Duration) { s.Engine.Run(until) }

// RunChecked advances the simulation to the given virtual time and reports
// a watchdog cancellation: when Config.EventBudget is armed and the run
// exhausts it, the returned error wraps checkpoint.ErrBudget so supervised
// sweeps journal the trial as exhausted instead of hanging or panicking.
// Run remains the unchecked path for callers without a budget.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *Simulation) RunChecked(until time.Duration) error {
	s.Engine.Run(until)
	return s.Engine.BudgetErr()
}

// LagHistogram proxies the network's Figure-6 lag buckets.
func (s *Simulation) LagHistogram() p2p.LagBuckets { return s.Network.LagHistogram() }

// Obs returns the attached observer (nil when observability is off).
func (s *Simulation) Obs() *obs.Observer { return s.cfg.Gossip.Obs }

// ObserveSync records the current sync state into the observer: the
// Figure-6 lag buckets as gauges plus the per-AS synced-node depth
// ("netsim.synced_nodes{as=N}") for every AS hosting at least one up
// node. A no-op without an attached registry, so callers may invoke it at
// measurement points unconditionally.
func (s *Simulation) ObserveSync() {
	reg := s.Obs().Registry()
	if reg == nil {
		return
	}
	lb := s.LagHistogram()
	reg.Gauge("netsim.lag_nodes", obs.L("bucket", "synced")).Set(float64(lb.Synced))
	reg.Gauge("netsim.lag_nodes", obs.L("bucket", "behind1")).Set(float64(lb.Behind1))
	reg.Gauge("netsim.lag_nodes", obs.L("bucket", "behind2to4")).Set(float64(lb.Behind2to4))
	reg.Gauge("netsim.lag_nodes", obs.L("bucket", "behind5to10")).Set(float64(lb.Behind5to10))
	reg.Gauge("netsim.lag_nodes", obs.L("bucket", "behind10plus")).Set(float64(lb.Behind10plus))
	ref := s.Network.RefHeight()
	synced := map[topology.ASN]int{}
	for _, node := range s.Network.Nodes {
		if node.Up && node.BlocksBehind(ref) == 0 {
			synced[node.Profile.ASN]++
		}
	}
	for asn, n := range synced {
		reg.Gauge("netsim.synced_nodes", obs.L("as", fmt.Sprintf("%d", asn))).Set(float64(n))
	}
}
