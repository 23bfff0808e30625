package faults

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/p2p"
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
	linkDrop   *obs.Counter
	linkOneWay *obs.Counter
	linkFlap   *obs.Counter
	msgLoss    *obs.Counter
	msgDup     *obs.Counter
	msgDelay   *obs.Counter
	churnDown  *obs.Counter
	churnUp    *obs.Counter
	rewire     *obs.Counter
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
		linkDrop:   kind(kindLinkDrop),
		linkOneWay: kind(kindLinkOneWay),
		linkFlap:   kind(kindLinkFlap),
		msgLoss:    kind(kindMsgLoss),
		msgDup:     kind(kindMsgDup),
		msgDelay:   kind(kindMsgDelay),
		churnDown:  kind(kindChurnDown),
		churnUp:    kind(kindChurnUp),
		rewire:     kind(kindRewire),
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
	chaos     stream
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
		chaos:     newStream(deriveStreamSeed(seed, saltChaos)),
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
		if kind, down := linkDown(inj.linkSeed, inj.sc.Links, int(from), int(to), now); down {
			switch kind {
			case kindLinkDrop:
				inj.m.linkDrop.Inc()
			case kindLinkOneWay:
				inj.m.linkOneWay.Inc()
			case kindLinkFlap:
				inj.m.linkFlap.Inc()
			}
			v.Drop = true
			return v
		}
	}
	if inj.sc.Chaos.Enabled() {
		c := inj.sc.Chaos
		if inj.chaos.bernoulli(c.LossProb) {
			inj.m.msgLoss.Inc()
			v.Drop = true
			return v
		}
		if inj.chaos.bernoulli(c.DupProb) {
			inj.m.msgDup.Inc()
			v.Duplicate = true
		}
		if inj.chaos.bernoulli(c.DelayProb) {
			inj.m.msgDelay.Inc()
			v.ExtraDelay = inj.chaos.expDuration(c.MeanExtraDelay)
		}
	}
	return v
}

// pairHash hashes the undirected endpoint pair into the link table.
func pairHash(linkSeed uint64, a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return mix64(linkSeed ^ mix64(uint64(uint32(a))<<32|uint64(uint32(b))))
}

// linkDown decides whether the directed link from→to is down at the given
// time. It is a pure function of (linkSeed, endpoints, now): no state, no
// stream, so the answer never depends on how much traffic the link has
// carried — the property the determinism tests pin. Both the event-driven
// injector and the grid injector share this table.
//
// The undirected hash's unit draw partitions links into dead
// [0, DropFraction), flapping [DropFraction, DropFraction+FlapFraction),
// and candidates for a one-way blackhole; a second hash picks the flap
// phase, a third the blackholed direction (only ever one direction, the
// asymmetric state BGP route reconvergence leaves behind).
func linkDown(linkSeed uint64, l LinkSpec, from, to int, now time.Duration) (string, bool) {
	h := pairHash(linkSeed, from, to)
	u := unit(h)
	if u < l.DropFraction {
		return kindLinkDrop, true
	}
	if u < l.DropFraction+l.FlapFraction {
		phase := time.Duration(mix64(h^0x5F1A) % uint64(l.FlapPeriod))
		pos := (now + phase) % l.FlapPeriod
		if pos >= time.Duration(float64(l.FlapPeriod)*l.FlapDuty) {
			return kindLinkFlap, true
		}
		return "", false
	}
	if l.OneWayFraction > 0 {
		h2 := mix64(h ^ 0x0E1A)
		if unit(h2) < l.OneWayFraction {
			lo := from
			if to < lo {
				lo = to
			}
			deadFromLow := mix64(h2)&1 == 0
			if (from == lo) == deadFromLow {
				return kindLinkOneWay, true
			}
		}
	}
	return "", false
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
		cs := &stream{state: uint64(deriveStreamSeed(inj.churnSeed, i))}
		if !cs.bernoulli(inj.sc.Churn.Fraction) {
			continue
		}
		inj.scheduleDown(id, cs)
	}
}

// scheduleDown arms the node's next leave event.
func (inj *Injector) scheduleDown(id p2p.NodeID, cs *stream) {
	delay := cs.expDuration(inj.sc.Churn.MeanUptime)
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
func (inj *Injector) scheduleUp(id p2p.NodeID, cs *stream) {
	delay := cs.expDuration(inj.sc.Churn.MeanDowntime)
	err := inj.engine.After(delay, func(now time.Duration) {
		inj.net.Nodes[id].Up = true
		inj.m.churnUp.Inc()
		inj.trace.Emit(int64(now), "faults", "node_up",
			obs.Fint("node", int64(id)),
			obs.Fbool("rediscover", inj.sc.Churn.Rediscover))
		if inj.sc.Churn.Rediscover {
			inj.net.RewirePeers(id, stats.NewRand(int64(cs.next())))
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
