package faults

import (
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// GridInjector realizes a Scenario against the step-driven grid model
// (gridsim): churn takes cells down and up on step boundaries, and the
// shared pure-hash link table decides which neighbor exchanges are dead,
// one-way, or mid-flap. The grid's edges never change, so gridsim compiles
// the table once per run (LinkClass per edge) and checks a contact with
// LinkDown, never re-hashing an endpoint pair in the step loop. Message
// chaos maps onto the grid's one-exchange-per-step model as extra loss
// only — duplication and extra delay have no representation when a step
// *is* the unit of communication, so those knobs are ignored here (the
// event-driven Injector honors them).
//
// Scenario durations are converted to steps through the step duration the
// caller supplies (gridsim passes BlockInterval / stepsPerBlock, the
// paper's Tdelay), so one Scenario value means the same physical fault
// load in both simulators.
type GridInjector struct {
	sc      Scenario
	stepDur time.Duration

	chaos parallel.Stream
	// chaosSeed is the chaos stream's initial state, kept aside so the
	// order-free ChaosLossAt hashes off a value that never advances.
	chaosSeed uint64
	linkSeed  uint64
	// flapPeriod and flapUp are the flap cycle and its up span, the two
	// constants of the per-contact flap check.
	flapPeriod, flapUp time.Duration

	// down[i] is cell i's current churn state; churn lists the churning
	// cells with their private streams and next scheduled flip step.
	down  []bool
	churn []gridChurnCell

	m     metrics
	trace *obs.Tracer
}

type gridChurnCell struct {
	idx      int
	cs       parallel.Stream
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
		chaos:     parallel.NewStream(deriveStreamSeed(seed, saltGridChaos)),
		chaosSeed: uint64(deriveStreamSeed(seed, saltGridChaos)),
		linkSeed:  uint64(deriveStreamSeed(seed, saltGridLinks)),
		down:      make([]bool, cells),
		m:         newMetrics(o),
		trace:     o.Tracer(),
	}
	if sc.Links.FlapFraction > 0 {
		gi.flapPeriod, gi.flapUp = sc.Links.FlapPeriod, flapUpSpan(sc.Links)
	}
	if gi.sc.Churn.Enabled() {
		churnSeed := deriveStreamSeed(seed, saltGridChurn)
		for i := 0; i < cells; i++ {
			if i == exempt {
				continue
			}
			cs := parallel.NewStream(deriveStreamSeed(churnSeed, i))
			if !cs.Bernoulli(gi.sc.Churn.Fraction) {
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
func (gi *GridInjector) holdSteps(cs *parallel.Stream, mean time.Duration) int {
	d := expDuration(cs, mean)
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

// LinkClass classifies the directed link from→to for the compiled table:
// its class and, for a flapping link, its phase. Without link faults every
// link is LinkUp.
func (gi *GridInjector) LinkClass(from, to int) (LinkClass, time.Duration) {
	return classifyLink(gi.linkSeed, gi.sc.Links, from, to)
}

// FlapClock is the position of the given step in the flap cycle,
// (step·stepDur) mod FlapPeriod, or zero when no link flaps. Callers
// compute it once per step and pass it to LinkDown.
func (gi *GridInjector) FlapClock(step int) time.Duration {
	if gi.flapPeriod == 0 {
		return 0
	}
	return time.Duration(step) * gi.stepDur % gi.flapPeriod
}

// LinkDown is the per-contact check of a compiled link: whether a link of
// class c (not LinkUp) and the given phase is down at the step whose
// FlapClock is clock, counting whatever fault it hits. It answers exactly as linkDown at
// time step·stepDur: clock and phase both lie in [0, FlapPeriod), so one
// conditional subtract reduces their sum mod FlapPeriod. It is safe from
// gang workers: it reads only fields fixed at construction, and the metric
// increment is atomic.
func (gi *GridInjector) LinkDown(c LinkClass, phase, clock time.Duration) bool {
	if c == LinkFlap {
		pos := clock + phase
		if pos >= gi.flapPeriod {
			pos -= gi.flapPeriod
		}
		if pos < gi.flapUp {
			return false
		}
	}
	gi.m.link[c].Inc()
	return true
}

// ChaosLoss draws one extra-loss decision from the chaos stream (in cell
// order, which the grid's communicate loop fixes). Callers gate it on a
// positive Chaos.LossProb, which keeps it small enough to inline; at zero
// it still draws nothing.
func (gi *GridInjector) ChaosLoss() bool {
	if gi.chaos.Bernoulli(gi.sc.Chaos.LossProb) {
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
// ChaosLoss: its goldens pin the sequential stream. Callers gate it on a
// positive Chaos.LossProb, like ChaosLoss.
func (gi *GridInjector) ChaosLossAt(cell, step int) bool {
	h := parallel.Mix64(gi.chaosSeed ^ parallel.Mix64(uint64(cell)+1) ^ parallel.Mix64(uint64(step)<<20))
	if unit(h) < gi.sc.Chaos.LossProb {
		gi.m.msgLoss.Inc()
		return true
	}
	return false
}
