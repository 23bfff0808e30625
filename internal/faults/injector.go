package faults

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Stream-derivation salts. Each fault family owns a namespaced SplitMix64
// stream so enabling one family never shifts another family's draws.
const (
	saltChurn = 101
	saltChaos = 102
	saltLinks = 103
	// saltGridChurn/saltGridChaos/saltGridLinks namespace the grid-model
	// injector (gridfaults.go) away from the event-driven one, so a study
	// that runs both simulators off one seed keeps them independent.
	saltGridChurn = 201
	saltGridChaos = 202
	saltGridLinks = 203
)

// Kind labels for the faults.injected metric.
const (
	kindLinkDrop   = "link_drop"
	kindLinkOneWay = "link_oneway"
	kindLinkFlap   = "link_flap"
	kindMsgLoss    = "msg_loss"
	kindMsgDup     = "msg_dup"
	kindMsgDelay   = "msg_delay"
	kindChurnDown  = "churn_down"
	kindChurnUp    = "churn_up"
	kindRewire     = "rewire"
)

// metrics holds the injector's pre-resolved counters — all nil (and
// therefore no-ops) when observability is off. Every injection increments
// faults.injected{kind=...}.
type metrics struct {
	// link is indexed by LinkClass; link[LinkUp] stays nil.
	link      [LinkFlap + 1]*obs.Counter
	msgLoss   *obs.Counter
	msgDup    *obs.Counter
	msgDelay  *obs.Counter
	churnDown *obs.Counter
	churnUp   *obs.Counter
	rewire    *obs.Counter
}

func newMetrics(o *obs.Observer) metrics {
	reg := o.Registry()
	if reg == nil {
		return metrics{}
	}
	kind := func(k string) *obs.Counter {
		return reg.Counter("faults.injected", obs.L("kind", k))
	}
	return metrics{
		link: [LinkFlap + 1]*obs.Counter{
			LinkDrop:   kind(kindLinkDrop),
			LinkOneWay: kind(kindLinkOneWay),
			LinkFlap:   kind(kindLinkFlap),
		},
		msgLoss:   kind(kindMsgLoss),
		msgDup:    kind(kindMsgDup),
		msgDelay:  kind(kindMsgDelay),
		churnDown: kind(kindChurnDown),
		churnUp:   kind(kindChurnUp),
		rewire:    kind(kindRewire),
	}
}

// Injector realizes a Scenario against the event-driven simulators: it
// implements p2p.FaultInjector for link faults and message chaos, and
// drives node churn on the simulation engine. One injector belongs to one
// simulation; its streams advance only inside that simulation's
// deterministic event order, which is what keeps scenario runs
// byte-identical at any worker count.
type Injector struct {
	sc        Scenario
	chaos     parallel.Stream
	linkSeed  uint64
	churnSeed int64

	engine *sim.Engine
	net    *p2p.Network

	m     metrics
	trace *obs.Tracer
}

// NewInjector builds an injector for the scenario, deriving every fault
// stream from the given seed (callers pass a seed already namespaced off
// the simulation seed, e.g. parallel.DeriveSeed(cfg.Seed, salt)).
func NewInjector(sc Scenario, seed int64, o *obs.Observer) (*Injector, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		sc:        sc,
		chaos:     parallel.NewStream(deriveStreamSeed(seed, saltChaos)),
		linkSeed:  uint64(deriveStreamSeed(seed, saltLinks)),
		churnSeed: deriveStreamSeed(seed, saltChurn),
		m:         newMetrics(o),
		trace:     o.Tracer(),
	}, nil
}

// Intercept implements p2p.FaultInjector: link faults first (a dead link
// drops everything, so per-message chaos draws are not even made), then
// message chaos in loss → duplication → delay order. Chaos draws come from
// the injector's own stream in send order — deterministic because the
// engine is single-threaded.
func (inj *Injector) Intercept(from, to p2p.NodeID, now time.Duration) p2p.FaultVerdict {
	var v p2p.FaultVerdict
	if inj.sc.Links.Enabled() {
		if c, down := linkDown(inj.linkSeed, inj.sc.Links, int(from), int(to), now); down {
			inj.m.link[c].Inc()
			v.Drop = true
			return v
		}
	}
	if inj.sc.Chaos.Enabled() {
		c := inj.sc.Chaos
		if inj.chaos.Bernoulli(c.LossProb) {
			inj.m.msgLoss.Inc()
			v.Drop = true
			return v
		}
		if inj.chaos.Bernoulli(c.DupProb) {
			inj.m.msgDup.Inc()
			v.Duplicate = true
		}
		if inj.chaos.Bernoulli(c.DelayProb) {
			inj.m.msgDelay.Inc()
			v.ExtraDelay = expDuration(&inj.chaos, c.MeanExtraDelay)
		}
	}
	return v
}

// pairHash hashes the undirected endpoint pair into the link table.
func pairHash(linkSeed uint64, a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return parallel.Mix64(linkSeed ^ parallel.Mix64(uint64(uint32(a))<<32|uint64(uint32(b))))
}

// LinkClass is a directed link's entry in the link table: the fault family
// it belongs to, fixed for the life of an injector. Only a flapping link's
// state moves with time, through the phase its classification carries.
type LinkClass uint8

// The link classes. LinkUp is the zero value, so a zeroed table is a
// faultless one.
const (
	LinkUp LinkClass = iota
	LinkDrop
	LinkOneWay
	LinkFlap
)

// classifyLink is the link table's one definition: a pure function of
// (linkSeed, spec, endpoints), with no state and no stream, so the answer
// never depends on how much traffic the link has carried — the property
// the determinism tests pin. The event-driven injector classifies per
// message (linkDown); the grid injector classifies every edge once and
// gridsim keeps the result in a per-edge table.
//
// The undirected hash's unit draw partitions links into dead
// [0, DropFraction), flapping [DropFraction, DropFraction+FlapFraction),
// and candidates for a one-way blackhole; a second hash picks the flap
// phase in [0, FlapPeriod), a third the blackholed direction (only ever one
// direction, the asymmetric state BGP route reconvergence leaves behind).
// The phase is zero for every class but LinkFlap.
func classifyLink(linkSeed uint64, l LinkSpec, from, to int) (LinkClass, time.Duration) {
	h := pairHash(linkSeed, from, to)
	u := unit(h)
	if u < l.DropFraction {
		return LinkDrop, 0
	}
	if u < l.DropFraction+l.FlapFraction {
		return LinkFlap, time.Duration(parallel.Mix64(h^0x5F1A) % uint64(l.FlapPeriod))
	}
	if l.OneWayFraction > 0 {
		h2 := parallel.Mix64(h ^ 0x0E1A)
		if unit(h2) < l.OneWayFraction {
			lo := from
			if to < lo {
				lo = to
			}
			deadFromLow := parallel.Mix64(h2)&1 == 0
			if (from == lo) == deadFromLow {
				return LinkOneWay, 0
			}
		}
	}
	return LinkUp, 0
}

// flapUpSpan is the part of each flap period a flapping link is up.
func flapUpSpan(l LinkSpec) time.Duration {
	return time.Duration(float64(l.FlapPeriod) * l.FlapDuty)
}

// linkDown decides whether the directed link from→to is down at the given
// time, returning the link's class: the classifier plus the time check.
// A flapping link is down for the part of each period past its up span,
// counted from its phase offset.
func linkDown(linkSeed uint64, l LinkSpec, from, to int, now time.Duration) (LinkClass, bool) {
	c, phase := classifyLink(linkSeed, l, from, to)
	switch c {
	case LinkUp:
		return c, false
	case LinkFlap:
		return c, (now+phase)%l.FlapPeriod >= flapUpSpan(l)
	}
	return c, true
}

// StartChurn schedules the join/leave cycles of every churning node on the
// engine. Each node gets its own SplitMix64 stream (derived from the churn
// seed by node index), drawn from only inside that node's own event chain:
// eligibility first, then alternating exponential up/down holding times.
// Exempt nodes — pool gateways, attack anchors — never churn.
func (inj *Injector) StartChurn(engine *sim.Engine, net *p2p.Network, exempt func(p2p.NodeID) bool) {
	if !inj.sc.Churn.Enabled() {
		return
	}
	inj.engine, inj.net = engine, net
	for i := range net.Nodes {
		id := p2p.NodeID(i)
		if exempt != nil && exempt(id) {
			continue
		}
		cs := parallel.NewStream(deriveStreamSeed(inj.churnSeed, i))
		if !cs.Bernoulli(inj.sc.Churn.Fraction) {
			continue
		}
		inj.scheduleDown(id, &cs)
	}
}

// scheduleDown arms the node's next leave event.
func (inj *Injector) scheduleDown(id p2p.NodeID, cs *parallel.Stream) {
	delay := expDuration(cs, inj.sc.Churn.MeanUptime)
	err := inj.engine.After(delay, func(now time.Duration) {
		inj.net.Nodes[id].Up = false
		inj.m.churnDown.Inc()
		inj.trace.Emit(int64(now), "faults", "node_down", obs.Fint("node", int64(id)))
		inj.scheduleUp(id, cs)
	})
	if err != nil {
		panic(fmt.Sprintf("faults: schedule churn down: %v", err))
	}
}

// scheduleUp arms the node's restart: the node comes back up, optionally
// re-discovers its outbound peers (p2p.RewirePeers, seeded from this
// node's churn stream), and is re-offered its neighbors' current tips —
// the getheaders-on-reconnect catch-up without which a restarted node
// would stay behind until the next block inv happened to reach it.
func (inj *Injector) scheduleUp(id p2p.NodeID, cs *parallel.Stream) {
	delay := expDuration(cs, inj.sc.Churn.MeanDowntime)
	err := inj.engine.After(delay, func(now time.Duration) {
		inj.net.Nodes[id].Up = true
		inj.m.churnUp.Inc()
		inj.trace.Emit(int64(now), "faults", "node_up",
			obs.Fint("node", int64(id)),
			obs.Fbool("rediscover", inj.sc.Churn.Rediscover))
		if inj.sc.Churn.Rediscover {
			inj.net.RewirePeers(id, stats.NewRand(int64(cs.Next())))
			inj.m.rewire.Inc()
		}
		for _, p := range inj.net.Neighbors(id) {
			inj.net.OfferTip(p, id)
		}
		inj.scheduleDown(id, cs)
	})
	if err != nil {
		panic(fmt.Sprintf("faults: schedule churn up: %v", err))
	}
}
