package faults

import (
	"time"

	"repro/internal/obs"
)

// GridInjector realizes a Scenario against the step-driven grid model
// (gridsim): churn takes cells down and up on step boundaries, and the
// shared pure-hash link table decides which neighbor exchanges are dead,
// one-way, or mid-flap. Message chaos maps onto the grid's one-exchange-
// per-step model as extra loss only — duplication and extra delay have no
// representation when a step *is* the unit of communication, so those
// knobs are ignored here (the event-driven Injector honors them).
//
// Scenario durations are converted to steps through the step duration the
// caller supplies (gridsim passes BlockInterval / stepsPerBlock, the
// paper's Tdelay), so one Scenario value means the same physical fault
// load in both simulators.
type GridInjector struct {
	sc      Scenario
	stepDur time.Duration

	chaos stream
	// chaosSeed is the chaos stream's initial state, kept aside so the
	// order-free ChaosLossAt hashes off a value that never advances.
	chaosSeed uint64
	linkSeed  uint64

	// down[i] is cell i's current churn state; churn lists the churning
	// cells with their private streams and next scheduled flip step.
	down  []bool
	churn []gridChurnCell

	m     metrics
	trace *obs.Tracer
}

type gridChurnCell struct {
	idx      int
	cs       stream
	nextFlip int
}

// NewGridInjector builds a grid injector over cells [0, cells). The exempt
// cell (the attacker's anchor, pass -1 for none) never churns. stepDur is
// the physical duration of one grid step.
func NewGridInjector(sc Scenario, seed int64, cells int, stepDur time.Duration, exempt int, o *obs.Observer) (*GridInjector, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if stepDur <= 0 {
		stepDur = time.Second
	}
	gi := &GridInjector{
		sc:        sc,
		stepDur:   stepDur,
		chaos:     newStream(deriveStreamSeed(seed, saltGridChaos)),
		chaosSeed: uint64(deriveStreamSeed(seed, saltGridChaos)),
		linkSeed:  uint64(deriveStreamSeed(seed, saltGridLinks)),
		down:      make([]bool, cells),
		m:         newMetrics(o),
		trace:     o.Tracer(),
	}
	if gi.sc.Churn.Enabled() {
		churnSeed := deriveStreamSeed(seed, saltGridChurn)
		for i := 0; i < cells; i++ {
			if i == exempt {
				continue
			}
			cs := stream{state: uint64(deriveStreamSeed(churnSeed, i))}
			if !cs.bernoulli(gi.sc.Churn.Fraction) {
				continue
			}
			first := gi.holdSteps(&cs, gi.sc.Churn.MeanUptime)
			gi.churn = append(gi.churn, gridChurnCell{idx: i, cs: cs, nextFlip: first})
		}
	}
	return gi, nil
}

// holdSteps converts an exponential holding time to a whole number of
// steps, at least one so a flip is never a same-step no-op.
func (gi *GridInjector) holdSteps(cs *stream, mean time.Duration) int {
	d := cs.expDuration(mean)
	steps := int(d / gi.stepDur)
	if steps < 1 {
		steps = 1
	}
	return steps
}

// StepChurn advances churn to the given step, flipping every cell whose
// holding time expired. Cells are visited in index order (the churn slice
// is built in index order), so the flips of one step are deterministic.
func (gi *GridInjector) StepChurn(step int) {
	if len(gi.churn) == 0 {
		return
	}
	for k := range gi.churn {
		c := &gi.churn[k]
		// A long step gap cannot occur (StepChurn runs every step), so one
		// flip per call suffices.
		if step < c.nextFlip {
			continue
		}
		if gi.down[c.idx] {
			gi.down[c.idx] = false
			gi.m.churnUp.Inc()
			gi.trace.Emit(int64(step), "faults", "cell_up", obs.Fint("cell", int64(c.idx)))
			c.nextFlip = step + gi.holdSteps(&c.cs, gi.sc.Churn.MeanUptime)
		} else {
			gi.down[c.idx] = true
			gi.m.churnDown.Inc()
			gi.trace.Emit(int64(step), "faults", "cell_down", obs.Fint("cell", int64(c.idx)))
			c.nextFlip = step + gi.holdSteps(&c.cs, gi.sc.Churn.MeanDowntime)
		}
	}
}

// Down reports whether the cell is churned out at the moment.
func (gi *GridInjector) Down(i int) bool { return gi.down[i] }

// Allow consults the link table for the exchange i→j at the given step,
// counting whatever fault it hits.
func (gi *GridInjector) Allow(i, j, step int) bool {
	if !gi.sc.Links.Enabled() {
		return true
	}
	kind, down := linkDown(gi.linkSeed, gi.sc.Links, i, j, time.Duration(step)*gi.stepDur)
	if !down {
		return true
	}
	switch kind {
	case kindLinkDrop:
		gi.m.linkDrop.Inc()
	case kindLinkOneWay:
		gi.m.linkOneWay.Inc()
	case kindLinkFlap:
		gi.m.linkFlap.Inc()
	}
	return false
}

// ChaosLoss draws one extra-loss decision from the chaos stream (in cell
// order, which the grid's communicate loop fixes).
func (gi *GridInjector) ChaosLoss() bool {
	if gi.sc.Chaos.LossProb <= 0 {
		return false
	}
	if gi.chaos.bernoulli(gi.sc.Chaos.LossProb) {
		gi.m.msgLoss.Inc()
		return true
	}
	return false
}

// ChaosLossAt is the order-free form of ChaosLoss for the sharded grid
// engine: the decision is a pure hash of (chaos seed, cell, step) instead
// of the next draw of a sequential stream, so shards ticking cells in any
// order — or concurrently — reach identical decisions, and the loss count
// is invariant to shard and worker count. The metric increment is atomic
// and commutative, so it is safe from gang workers. The legacy engine keeps
// ChaosLoss: its goldens pin the sequential stream.
func (gi *GridInjector) ChaosLossAt(cell, step int) bool {
	if gi.sc.Chaos.LossProb <= 0 {
		return false
	}
	h := mix64(gi.chaosSeed ^ mix64(uint64(cell)+1) ^ mix64(uint64(step)<<20))
	if unit(h) < gi.sc.Chaos.LossProb {
		gi.m.msgLoss.Inc()
		return true
	}
	return false
}
