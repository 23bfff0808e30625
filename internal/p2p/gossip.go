package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockchain"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Spreading selects the propagation protocol. Bitcoin used trickle
// spreading until 2015 and diffusion since; the paper's timing model is
// built on diffusion's independent exponential delays, and the ablation
// bench compares the two.
type Spreading int

// Spreading modes.
const (
	SpreadingInvalid Spreading = iota
	// Diffusion relays each message with an independent exponential delay.
	Diffusion
	// Trickle relays in fixed rounds: each hop waits a uniformly chosen
	// 1-4 multiples of TrickleInterval, approximating the legacy staged
	// flooding.
	Trickle
)

// Config parameterizes a gossip network. Zero values are replaced by the
// defaults the paper uses.
type Config struct {
	// PeerCount is the number of outbound peers per node. Default 8 ("the
	// default number of Bitcoin peers is 8, which is used in our
	// simulation").
	PeerCount int
	// MeanRelayDelay is the mean of the exponential per-hop delay under
	// diffusion. Default 2s, consistent with measured Bitcoin relay latency
	// (Decker & Wattenhofer report medians of a few seconds).
	MeanRelayDelay time.Duration
	// FailureRate is the probability an individual message is lost.
	// Default 0.10 ("peer communication failure rate is ... typically
	// around 10 percent").
	FailureRate float64
	// Spreading selects diffusion (default) or trickle.
	Spreading Spreading
	// TrickleInterval is the trickle round length. Default 10s.
	TrickleInterval time.Duration
	// RequestTimeout is how long a node waits on an in-flight getdata
	// before a fresh inv may trigger a re-request. Default 30s.
	RequestTimeout time.Duration
	// SameASBias is the probability an outbound peer slot is filled with a
	// node from the same AS when one exists (locality-biased peering; the
	// clustering approaches of Fadhil et al. and Sallal et al. the paper
	// cites reduce latency this way, at the cost of partitionability —
	// §V-B: "this may increase the potential for partitioning attacks").
	// Zero (the default) selects peers uniformly, which matches the
	// paper's measurement that peers "are distributed, and can be
	// associated with any AS".
	SameASBias float64
	// Obs attaches the observability layer (DESIGN.md §9). Nil — the
	// default — disables all instrumentation; an instrumented run produces
	// byte-identical simulation output to an uninstrumented one.
	Obs *obs.Observer
	// Faults attaches a fault injector (DESIGN.md §10) consulted for every
	// message after the attacker link policy and before the random failure
	// model. Nil — the default — injects nothing with byte-identical
	// output; internal/faults provides the implementation.
	Faults FaultInjector
}

func (c Config) withDefaults() Config {
	if c.PeerCount == 0 {
		c.PeerCount = 8
	}
	if c.MeanRelayDelay == 0 {
		c.MeanRelayDelay = 2 * time.Second
	}
	if c.FailureRate == 0 {
		c.FailureRate = 0.10
	}
	if c.Spreading == SpreadingInvalid {
		c.Spreading = Diffusion
	}
	if c.TrickleInterval == 0 {
		c.TrickleInterval = 10 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Validate rejects nonsensical parameters.
func (c Config) Validate() error {
	if c.PeerCount < 0 {
		return fmt.Errorf("p2p: negative peer count %d", c.PeerCount)
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return fmt.Errorf("p2p: failure rate %v outside [0,1)", c.FailureRate)
	}
	if c.MeanRelayDelay < 0 {
		return fmt.Errorf("p2p: negative relay delay %v", c.MeanRelayDelay)
	}
	if c.SameASBias < 0 || c.SameASBias > 1 {
		return fmt.Errorf("p2p: same-AS bias %v outside [0,1]", c.SameASBias)
	}
	return nil
}

// LinkPolicy decides whether a message from one node can reach another at
// the given virtual time. Attacks install policies: a BGP partition blocks
// links crossing the cut; an eclipse blocks everything except
// attacker-controlled links. A nil policy allows everything.
type LinkPolicy func(from, to NodeID, now time.Duration) bool

// Stats counts message outcomes for a network run.
type Stats struct {
	Sent    int // messages scheduled
	Dropped int // lost to random failure
	Blocked int // denied by the link policy
	Faulted int // discarded by the fault injector
}

// Network couples nodes to the event engine and implements the gossip
// protocol over them.
type Network struct {
	Engine *sim.Engine
	Nodes  []*Node

	cfg Config
	// lambda is the precomputed diffusion delay rate 1/MeanRelayDelay, so
	// the per-message hop sampler does no division on the hot path.
	lambda   float64
	rng      *rand.Rand
	policy   LinkPolicy
	adj      [][]NodeID // undirected adjacency (out ∪ in edges)
	refTip   *blockchain.Block
	msgStats Stats
	// bypass holds directed pairs exempt from the link policy: freshly
	// opened connections that an eclipse of the victim's original peers
	// cannot intercept (BlockAware's recovery path).
	bypass map[[2]NodeID]bool
	obs    netObs
	// hashIdx interns every block hash the network handles to a dense
	// index, assigned in first-reference order. The per-node request
	// ledger (Node.reqAt) is indexed by it, so the relay hot path dedups
	// with slice loads: one intern probe when a hash first enters a relay
	// fan-out, instead of a map operation per node per message.
	hashIdx map[blockchain.Hash]int32
	// pendingBuf is the reusable work queue of attachAndRelay. Delivery is
	// single-threaded and attachAndRelay never re-enters (sends only
	// schedule future events), so one buffer per network suffices.
	pendingBuf []*blockchain.Block
}

// netObs holds the network's pre-resolved instrument handles so the hot
// path never touches the registry map: with observability off every field
// is nil and each update is a single nil check (DESIGN.md §9).
type netObs struct {
	trace *obs.Tracer
	// sent/deduped are indexed by MsgType (inv, getdata, block).
	sent    [4]*obs.Counter
	deduped [4]*obs.Counter
	dropped *obs.Counter
	blocked *obs.Counter
	faulted *obs.Counter
	retries *obs.Counter
	orphans *obs.Counter
	accept  *obs.Counter
	reorgs  *obs.Counter
	revTxs  *obs.Counter
}

// initObs resolves the instrument handles once at construction.
func (n *Network) initObs(o *obs.Observer) {
	reg := o.Registry()
	if reg == nil && o.Tracer() == nil {
		return
	}
	n.obs.trace = o.Tracer()
	for _, t := range []MsgType{MsgInv, MsgGetData, MsgBlock} {
		n.obs.sent[t] = reg.Counter("p2p.msgs_sent", obs.L("type", t.String()))
		n.obs.deduped[t] = reg.Counter("p2p.msgs_deduped", obs.L("type", t.String()))
	}
	n.obs.dropped = reg.Counter("p2p.msgs_dropped")
	n.obs.blocked = reg.Counter("p2p.msgs_blocked")
	// Only a fault-injecting run registers the faulted counter, so the
	// faults-off metrics render (and its golden) is untouched.
	if n.cfg.Faults != nil {
		n.obs.faulted = reg.Counter("p2p.msgs_faulted")
	}
	n.obs.retries = reg.Counter("p2p.getdata_retries")
	n.obs.orphans = reg.Counter("p2p.orphans_stashed")
	n.obs.accept = reg.Counter("p2p.blocks_accepted")
	n.obs.reorgs = reg.Counter("p2p.reorgs")
	n.obs.revTxs = reg.Counter("p2p.reversed_txs")
}

// NewNetwork builds a network over the given nodes and wires a random
// peer graph. The engine and rng are owned by the caller so several
// subsystems can share one virtual clock and one seed.
func NewNetwork(engine *sim.Engine, nodes []*Node, cfg Config, rng *rand.Rand) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if engine == nil || rng == nil {
		return nil, errors.New("p2p: nil engine or rng")
	}
	if len(nodes) < 2 {
		return nil, errors.New("p2p: need at least two nodes")
	}
	n := &Network{
		Engine:  engine,
		Nodes:   nodes,
		cfg:     cfg,
		lambda:  1 / cfg.MeanRelayDelay.Seconds(),
		rng:     rng,
		refTip:  blockchain.Genesis(),
		hashIdx: map[blockchain.Hash]int32{},
	}
	n.initObs(cfg.Obs)
	n.connect()
	return n, nil
}

// NewNetworkWithGraph builds a network over an explicit outbound-peer
// graph instead of random selection. outbound[i] lists node i's outbound
// peers; relay still runs over the undirected closure (out ∪ in), as in
// Bitcoin. Experiments use this to construct structured topologies (e.g.
// an AS whose interior nodes relay exclusively through border nodes, the
// precondition of the §V-A cascade effect).
func NewNetworkWithGraph(engine *sim.Engine, nodes []*Node, cfg Config, rng *rand.Rand, outbound [][]NodeID) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if engine == nil || rng == nil {
		return nil, errors.New("p2p: nil engine or rng")
	}
	if len(nodes) < 2 {
		return nil, errors.New("p2p: need at least two nodes")
	}
	if len(outbound) != len(nodes) {
		return nil, fmt.Errorf("p2p: graph has %d rows for %d nodes", len(outbound), len(nodes))
	}
	n := &Network{
		Engine:  engine,
		Nodes:   nodes,
		cfg:     cfg,
		lambda:  1 / cfg.MeanRelayDelay.Seconds(),
		rng:     rng,
		refTip:  blockchain.Genesis(),
		hashIdx: map[blockchain.Hash]int32{},
	}
	n.initObs(cfg.Obs)
	adjSet := make([]map[NodeID]bool, len(nodes))
	for i := range adjSet {
		adjSet[i] = map[NodeID]bool{}
	}
	for i, peers := range outbound {
		nodes[i].Peers = nodes[i].Peers[:0]
		for _, p := range peers {
			if int(p) < 0 || int(p) >= len(nodes) || int(p) == i {
				return nil, fmt.Errorf("p2p: node %d has invalid peer %d", i, p)
			}
			nodes[i].Peers = append(nodes[i].Peers, p)
			adjSet[i][p] = true
			adjSet[p][NodeID(i)] = true
		}
	}
	n.adj = make([][]NodeID, len(nodes))
	for i, set := range adjSet {
		for p := range set {
			n.adj[i] = append(n.adj[i], p)
		}
		sortNodeIDs(n.adj[i])
	}
	return n, nil
}

// connect assigns each node PeerCount distinct random outbound peers and
// builds the undirected adjacency used for relay (Bitcoin gossips over both
// inbound and outbound connections). The paper notes peers are distributed
// across ASes rather than clustered, so uniform random selection is the
// faithful model.
func (n *Network) connect() {
	count := n.cfg.PeerCount
	if count > len(n.Nodes)-1 {
		count = len(n.Nodes) - 1
	}
	adjSet := make([]map[NodeID]bool, len(n.Nodes))
	for i := range adjSet {
		adjSet[i] = make(map[NodeID]bool, count*2)
	}
	// Pre-index nodes by AS for locality-biased selection.
	var byAS map[topology.ASN][]NodeID
	if n.cfg.SameASBias > 0 {
		byAS = map[topology.ASN][]NodeID{}
		for i, node := range n.Nodes {
			byAS[node.Profile.ASN] = append(byAS[node.Profile.ASN], NodeID(i))
		}
	}
	for i, node := range n.Nodes {
		node.Peers = node.Peers[:0]
		// Deduplicate against this node's own outbound picks only: an
		// outbound connection may legitimately coexist with an inbound one
		// from the same peer, and requiring distinctness against inbound
		// edges can leave too few candidates on small networks.
		picked := make(map[NodeID]bool, count)
		sameAS := byAS[node.Profile.ASN]
		for attempts := 0; len(node.Peers) < count; attempts++ {
			var p NodeID
			// Locality bias: prefer a same-AS peer when configured and
			// available. Bounded attempts keep termination guaranteed when
			// the same-AS pool is smaller than the peer budget.
			if n.cfg.SameASBias > 0 && len(sameAS) > 1 && attempts < count*16 &&
				n.rng.Float64() < n.cfg.SameASBias {
				p = sameAS[n.rng.Intn(len(sameAS))]
			} else {
				p = NodeID(n.rng.Intn(len(n.Nodes)))
			}
			if int(p) == i || picked[p] {
				continue
			}
			picked[p] = true
			node.Peers = append(node.Peers, p)
			adjSet[i][p] = true
			adjSet[p][NodeID(i)] = true
		}
	}
	n.adj = make([][]NodeID, len(n.Nodes))
	for i, set := range adjSet {
		for p := range set {
			n.adj[i] = append(n.adj[i], p)
		}
		// Deterministic order: sort ascending.
		sortNodeIDs(n.adj[i])
	}
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Neighbors returns the relay neighbors of a node (outbound ∪ inbound).
func (n *Network) Neighbors(id NodeID) []NodeID {
	return n.adj[id]
}

// SetPolicy installs (or clears, with nil) the attacker link policy.
func (n *Network) SetPolicy(p LinkPolicy) {
	n.obs.trace.Emit(int64(n.Engine.Now()), "p2p", "policy",
		obs.Fbool("installed", p != nil))
	n.policy = p
}

// AddBypassLink opens a policy-exempt connection between two nodes (both
// directions). It models a fresh outbound connection that the attacker's
// control of the victim's original peers cannot intercept.
func (n *Network) AddBypassLink(a, b NodeID) {
	if n.bypass == nil {
		n.bypass = map[[2]NodeID]bool{}
	}
	n.bypass[[2]NodeID{a, b}] = true
	n.bypass[[2]NodeID{b, a}] = true
}

// MsgStats returns message accounting so far.
//
//lint:ignore unusedexport message accounting the fault-injection and determinism tests assert against
func (n *Network) MsgStats() Stats { return n.msgStats }

// RefHeight returns the height of the global reference tip.
func (n *Network) RefHeight() int { return n.refTip.Height }

// hopDelay samples one relay hop's latency.
func (n *Network) hopDelay() time.Duration {
	switch n.cfg.Spreading {
	case Trickle:
		rounds := 1 + n.rng.Intn(4)
		return time.Duration(rounds) * n.cfg.TrickleInterval
	default:
		return time.Duration(stats.Exponential(n.rng, n.lambda) * float64(time.Second))
	}
}

// send schedules delivery of a message, applying the link policy and the
// random failure model.
func (n *Network) send(m Message) {
	n.msgStats.Sent++
	n.obs.sent[m.Type].Inc()
	if n.policy != nil && !n.bypass[[2]NodeID{m.From, m.To}] && !n.policy(m.From, m.To, n.Engine.Now()) {
		n.msgStats.Blocked++
		n.obs.blocked.Inc()
		return
	}
	var extraDelay time.Duration
	if n.cfg.Faults != nil {
		v := n.cfg.Faults.Intercept(m.From, m.To, n.Engine.Now())
		if v.Drop {
			n.msgStats.Faulted++
			n.obs.faulted.Inc()
			return
		}
		if v.Duplicate {
			n.scheduleDelivery(m, v.ExtraDelay+n.hopDelay())
		}
		extraDelay = v.ExtraDelay
	}
	if stats.Bernoulli(n.rng, n.cfg.FailureRate) {
		n.msgStats.Dropped++
		n.obs.dropped.Inc()
		return
	}
	n.scheduleDelivery(m, extraDelay+n.hopDelay())
}

// intern returns the dense index of a block hash, assigning the next free
// index on first reference.
func (n *Network) intern(h blockchain.Hash) int32 {
	if idx, ok := n.hashIdx[h]; ok {
		return idx
	}
	idx := int32(len(n.hashIdx))
	n.hashIdx[h] = idx
	return idx
}

// evRetry is the MsgEvent kind for an armed getdata retry; the wire
// messages use their MsgType value as the kind.
const evRetry = 0x80

// scheduleDelivery arms one delivery of the message after the given delay,
// as a typed engine event — no closure, no per-message allocation. Even a
// block delivery carries no pointer: chain trees are append-only, so the
// block is re-resolved from the sender's tree at arrival time — the same
// *Block the sender held at send time (DESIGN.md §12). Scheduling in the
// past cannot happen (delay >= 0); an error here is a programming bug, so
// surface it loudly in simulation runs.
func (n *Network) scheduleDelivery(m Message, delay time.Duration) {
	err := n.Engine.AfterMsg(delay, n, sim.MsgEvent{
		Kind: uint8(m.Type), From: int32(m.From), To: int32(m.To),
		Idx: m.Idx, Key: uint64(m.Hash),
	})
	if err != nil {
		panic(fmt.Sprintf("p2p: schedule: %v", err))
	}
}

// HandleMsg dispatches a typed engine event: a wire message at its arrival
// time, or a request-retry check at its deadline. It implements sim.MsgSink.
func (n *Network) HandleMsg(now time.Duration, ev sim.MsgEvent) {
	if ev.Kind == evRetry {
		// A getdata fired earlier did not produce the block within
		// RequestTimeout: re-request from the same provider.
		node := n.Nodes[ev.To]
		h := blockchain.Hash(ev.Key)
		if !node.Up || node.Tree.Has(h) {
			return
		}
		node.markRequested(ev.Idx, now, 0)
		n.requestBlock(NodeID(ev.To), NodeID(ev.From), h, ev.Idx, int(ev.Attempt))
		return
	}
	to := n.Nodes[ev.To]
	if !to.Up {
		return
	}
	switch MsgType(ev.Kind) {
	case MsgInv:
		// Dedup order matters for speed, not outcome: the bitset covers
		// accepted blocks, the request ledger covers the inv-to-download
		// window (the common repeat-inv case, a slice load), and the tree
		// probe is the slow authoritative fallback for blocks that entered
		// the tree without passing the relay. The disjunction's value is
		// identical in any order; checking the ledger before the tree only
		// adds a request mark for already-held blocks, which no later path
		// consults (a held block is never re-requested).
		if to.hasIdx(ev.Idx) || to.markRequested(ev.Idx, now, n.cfg.RequestTimeout) || to.Tree.Has(blockchain.Hash(ev.Key)) {
			n.obs.deduped[MsgInv].Inc()
			return
		}
		n.requestBlock(NodeID(ev.To), NodeID(ev.From), blockchain.Hash(ev.Key), ev.Idx, 0)
	case MsgGetData:
		// hasIdx fronts the tree's map probe: a set bit proves the serving
		// node accepted the block (acceptance is what sets it), and the
		// authoritative lookup only runs for blocks that entered the tree
		// without passing the relay.
		if to.hasIdx(ev.Idx) || to.Tree.Has(blockchain.Hash(ev.Key)) {
			n.send(Message{Type: MsgBlock, From: NodeID(ev.To), To: NodeID(ev.From),
				Hash: blockchain.Hash(ev.Key), Idx: ev.Idx})
		}
	case MsgBlock:
		// The sender's tree is append-only, so the block it resolved at
		// send time is still there — same pointer, no payload carried.
		if b, ok := n.Nodes[ev.From].Tree.Get(blockchain.Hash(ev.Key)); ok {
			n.handleBlock(NodeID(ev.To), NodeID(ev.From), b, now)
		}
	}
}

// handleBlock adds a received block to a node's view. A block with an
// unknown parent is stashed in the orphan pool and the parent is requested
// from the sender (classic pre-headers Bitcoin orphan handling). Newly
// attached blocks — including any orphans they unblock — are announced to
// the node's neighbors.
func (n *Network) handleBlock(id, from NodeID, b *blockchain.Block, now time.Duration) {
	node := n.Nodes[id]
	if !node.Up || b == nil {
		return
	}
	if !node.Tree.Has(b.Parent) {
		node.AddOrphan(b.Parent, b)
		n.obs.orphans.Inc()
		// Walk back through already-stashed orphans to the deepest missing
		// ancestor, so that each recovery attempt extends earlier progress
		// instead of re-fetching the whole gap (with lossy links a long
		// linear re-fetch would almost never complete).
		missing := b.Parent
		for {
			o, ok := node.OrphanWithHash(missing)
			if !ok {
				break
			}
			if node.Tree.Has(o.Parent) {
				// The chain is actually complete: attach from its base.
				n.attachAndRelay(id, o, now)
				return
			}
			missing = o.Parent
		}
		if idx := n.intern(missing); !node.markRequested(idx, now, n.cfg.RequestTimeout) {
			n.requestBlock(id, from, missing, idx, 0)
		}
		return
	}
	n.attachAndRelay(id, b, now)
}

// maxRequestRetries bounds how many times a node re-requests a block whose
// download stalled (Bitcoin's block-download timeout and peer rotation play
// the same role).
const maxRequestRetries = 5

// requestBlock sends a getdata and arms a retry: if the block has not
// arrived within RequestTimeout, the request is re-sent to the same
// provider, up to maxRequestRetries times. Without retries a single lost
// message would strand a node one block behind until the next block's
// arrival happened to heal it — and forever, for the newest block. The
// retry rides as a typed evRetry event rather than a closure.
func (n *Network) requestBlock(to, provider NodeID, h blockchain.Hash, idx int32, attempt int) {
	if attempt > 0 {
		n.obs.retries.Inc()
	}
	n.send(Message{Type: MsgGetData, From: to, To: provider, Hash: h, Idx: idx})
	if attempt >= maxRequestRetries {
		return
	}
	err := n.Engine.AfterMsg(n.cfg.RequestTimeout, n, sim.MsgEvent{
		Kind: evRetry, Attempt: uint8(attempt + 1),
		From: int32(provider), To: int32(to), Idx: idx, Key: uint64(h),
	})
	if err != nil {
		panic(fmt.Sprintf("p2p: schedule retry: %v", err))
	}
}

// attachAndRelay attaches a block whose parent is present, drains any
// orphans that were waiting on it (transitively), and relays inv messages
// for everything newly accepted.
func (n *Network) attachAndRelay(id NodeID, b *blockchain.Block, now time.Duration) {
	node := n.Nodes[id]
	pending := append(n.pendingBuf[:0], b)
	for k := 0; k < len(pending); k++ {
		next := pending[k]
		reorgsBefore, reversedBefore := node.ReorgCount, node.ReversedTxs
		isNew, err := node.AcceptBlock(next, now)
		if err != nil || !isNew {
			continue
		}
		n.obs.accept.Inc()
		if d := node.ReorgCount - reorgsBefore; d > 0 {
			reversed := node.ReversedTxs - reversedBefore
			n.obs.reorgs.Add(uint64(d))
			n.obs.revTxs.Add(uint64(reversed))
			n.obs.trace.Emit(int64(now), "p2p", "reorg",
				obs.Fint("node", int64(id)),
				obs.Fint("height", int64(next.Height)),
				obs.Fint("reversed_txs", int64(reversed)),
				obs.Fbool("counterfeit", next.Counterfeit))
		}
		// One intern for the whole inv fan-out.
		idx := n.intern(next.Hash)
		node.setHave(idx)
		for _, peer := range n.adj[id] {
			n.send(Message{Type: MsgInv, From: id, To: peer, Hash: next.Hash, Idx: idx})
		}
		pending = append(pending, node.TakeOrphans(next.Hash)...)
	}
	n.pendingBuf = pending[:0]
}

// Publish injects a freshly mined block at the origin node and starts its
// propagation. It also advances the global reference tip if the block
// extends the highest known chain.
func (n *Network) Publish(origin NodeID, b *blockchain.Block) error {
	if b == nil {
		return errors.New("p2p: nil block")
	}
	if int(origin) < 0 || int(origin) >= len(n.Nodes) {
		return fmt.Errorf("p2p: origin %d out of range", origin)
	}
	if b.Height > n.refTip.Height && !b.Counterfeit {
		n.refTip = b
	}
	n.obs.trace.Emit(int64(n.Engine.Now()), "p2p", "block_published",
		obs.Fint("origin", int64(origin)),
		obs.Fint("height", int64(b.Height)),
		obs.Fbool("counterfeit", b.Counterfeit))
	n.attachAndRelay(origin, b, n.Engine.Now())
	return nil
}

// InjectBlock delivers a block directly to a node after a delay, bypassing
// both the link policy and the failure model. It models an adversary's own
// connection to a victim (the temporal attacker of §V-B "establishes
// connections with nodes" and feeds them blocks directly). Orphan-recovery
// requests triggered by the injected block are addressed to the given
// responder node.
func (n *Network) InjectBlock(to, responder NodeID, b *blockchain.Block, delay time.Duration) error {
	if b == nil {
		return errors.New("p2p: nil block")
	}
	if int(to) < 0 || int(to) >= len(n.Nodes) || int(responder) < 0 || int(responder) >= len(n.Nodes) {
		return fmt.Errorf("p2p: inject target %d/%d out of range", to, responder)
	}
	return n.Engine.After(delay, func(now time.Duration) {
		n.handleBlock(to, responder, b, now)
	})
}

// OfferTip sends an inv for from's current best tip to another node. The
// attack executors use it to restart propagation into a released partition:
// inv messages are only generated on novelty, so a healed cut needs an
// explicit re-offer (real nodes do the equivalent via getheaders on
// reconnection).
func (n *Network) OfferTip(from, to NodeID) {
	tip := n.Nodes[from].Tree.Tip()
	if tip.Height == 0 {
		return
	}
	n.send(Message{Type: MsgInv, From: from, To: to, Hash: tip.Hash, Idx: n.intern(tip.Hash)})
}

// LagHistogram buckets all up nodes by how many blocks behind the reference
// tip they are, using the paper's Figure 6 buckets: 0 (synced), 1, 2-4,
// 5-10, >10.
func (n *Network) LagHistogram() LagBuckets {
	var lb LagBuckets
	ref := n.RefHeight()
	for _, node := range n.Nodes {
		if !node.Up {
			continue
		}
		lb.Add(node.BlocksBehind(ref))
	}
	return lb
}

// LagBuckets are the stacked-series buckets of Figure 6: nodes that are up
// to date, 1 block behind, 2-4, 5-10, and more than 10 blocks behind.
type LagBuckets struct {
	Synced       int
	Behind1      int
	Behind2to4   int
	Behind5to10  int
	Behind10plus int
}

// Add buckets one node's lag.
func (lb *LagBuckets) Add(behind int) {
	switch {
	case behind <= 0:
		lb.Synced++
	case behind == 1:
		lb.Behind1++
	case behind <= 4:
		lb.Behind2to4++
	case behind <= 10:
		lb.Behind5to10++
	default:
		lb.Behind10plus++
	}
}

// Total returns the number of nodes counted.
//
//lint:ignore unusedexport pinned by the soa_* golden digest (synced/behind split)
func (lb LagBuckets) Total() int {
	return lb.Synced + lb.Behind1 + lb.Behind2to4 + lb.Behind5to10 + lb.Behind10plus
}
