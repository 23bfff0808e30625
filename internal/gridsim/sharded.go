package gridsim

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shard"
)

// The sharded engine (DESIGN.md §13): the same grid world, partitioned
// into contiguous row bands and ticked concurrently by a parallel.Gang.
// Three design choices make the output byte-identical at every shard count
// and worker count:
//
//  1. Counter-mode randomness. The legacy engine consumes one sequential
//     RNG stream in cell-index order, which no partition can reproduce
//     concurrently. Here every per-cell decision derives from
//     parallel.Mix64(tickKey + (cell+1)·Gamma) — a pure function of
//     (seed, step, cell) — so a cell draws the same values whichever
//     shard, worker, or moment computes it.
//  2. Synchronous pull-only gossip under double buffering. Each cell reads
//     the frozen previous tick (anywhere — a shard's foreign reads are the
//     plan's halo, served from shared memory) and writes only itself into
//     the next buffer. Writes are disjoint by ownership, so shards cannot
//     race, and no cell observes a same-tick update — the in-step
//     visibility that also made the legacy loop order-dependent.
//  3. Task-order folds. Per-shard tallies (flips, fork-population deltas,
//     cross-shard pulls) are folded on the coordinator at the tick barrier
//     in shard order — indexed loops over slices, the shape the detmerge
//     analyzer can prove deterministic. Mining, fork creation, churn, and
//     trace emission all run on the coordinator at global sync points, fed
//     by the grid's own sequential RNG, which shards never touch.
//
// Mining keeps the legacy semantics byte-for-byte (same stream, same
// draws); only gossip differs — pull-only instead of push-pull — which is
// why Shards=0 and Shards>=1 are distinct experiments while all sharded
// configurations of a world are the same experiment at different speeds.

// tickSeedSalt namespaces the counter-draw family off the run seed, so a
// sharded tick never correlates with the mining stream or the fault
// streams derived from the same seed.
const tickSeedSalt = 0x71C4

// ShardStats summarizes the partitioning of a sharded run. It is
// deliberately not an obs metric: halo sizes and cross-shard pull counts
// depend on the shard count, and the metrics registry must stay
// byte-identical across shard counts.
type ShardStats struct {
	// Shards is the shard count.
	Shards int
	// Workers is the gang width ticking the shards.
	Workers int
	// HaloCells is the per-tick boundary-exchange volume: the total number
	// of foreign cells shards read each tick.
	HaloCells int
	// CrossPulls counts adoptions that pulled state across a shard
	// boundary so far.
	CrossPulls int64
}

// ShardStats returns the partitioning summary; the zero value when the
// legacy engine is running.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; it goes with the sharded engine in ROADMAP item 4(b), blocked while perfbench's ladder calls gridsim.WithShards
func (g *Grid) ShardStats() ShardStats { return g.shardStats }

// resetSharded builds the partition plan, the gang, and the double-buffer
// arenas for a cfg.Shards >= 1 reset. Called from ResetConfig with
// validation already done.
func (g *Grid) resetSharded(cfg Config, n int) error {
	g.adjFn = g.neighbors
	g.plan = shard.BuildPlan(n, cfg.Shards, g.adjFn)
	g.gang = parallel.NewGang(cfg.ShardWorkers)
	g.tickFn = g.tickShard
	g.tickBase = parallel.Mix64(uint64(parallel.DeriveSeed(cfg.Seed, tickSeedSalt)))
	g.failThresh53 = float53Threshold(cfg.FailureRate)
	g.nextFork = resizeI32(g.nextFork, n)
	g.nextHeight = resizeI32(g.nextHeight, n)
	g.nextLink = resizeHash(g.nextLink, n)
	g.resizeShardScratch()
	g.shardStats = ShardStats{
		Shards:    cfg.Shards,
		Workers:   g.gang.Workers(),
		HaloCells: g.plan.HaloCells(),
	}
	return nil
}

// resizeShardScratch sizes the per-shard tally slices to the shard count.
func (g *Grid) resizeShardScratch() {
	k := g.plan.Shards()
	g.shCross = resizeI64(g.shCross, k)
	for s := range g.shCross {
		g.shCross[s] = 0
	}
	if !g.obsOn {
		return
	}
	g.shFlips = resizeI64(g.shFlips, k)
	for s := range g.shFlips {
		g.shFlips[s] = 0
	}
	if cap(g.shPopDelta) >= k {
		g.shPopDelta = g.shPopDelta[:k]
	} else {
		g.shPopDelta = make([][]int32, k)
	}
}

// resizeI64 returns a slice of length n, reusing s's backing array when it
// is large enough.
func resizeI64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// float53Threshold is float01Threshold for the 53-bit counter draws: the
// smallest y such that float64(y)/2^53 >= p, so the sharded failure test is
// a pure integer compare on Mix64(c) >> 11 — the same high-bits-to-unit
// mapping the fault streams use.
func float53Threshold(p float64) int64 {
	lo, hi := int64(0), int64(1)<<53
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<53) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// advanceSharded is Advance for the sharded engine: per step, churn flips
// on the coordinator, the gang ticks
// every shard against the frozen buffers, per-shard tallies fold in shard
// order, the buffers swap, and a due block event mines on the coordinator.
func (g *Grid) advanceSharded(n int) {
	for t := 0; t < n; t++ {
		if g.cfg.StepBudget > 0 && g.step >= g.cfg.StepBudget {
			g.exhausted = true
			return
		}
		g.step++
		if g.faults != nil {
			g.faults.StepChurn(g.step)
			g.flapClock = g.faults.FlapClock(g.step)
		}
		g.tickKey = parallel.Mix64(g.tickBase + uint64(g.step)*parallel.Gamma)
		if g.obsOn {
			g.prepTickObs()
		}
		g.gang.Run(g.plan.Shards(), g.tickFn)
		g.foldShards()
		g.fork, g.nextFork = g.nextFork, g.fork
		g.height, g.nextHeight = g.nextHeight, g.height
		g.link, g.nextLink = g.nextLink, g.link
		if g.stepsPerBlock > 0 && g.step%g.stepsPerBlock == 0 {
			g.mineBlock()
		}
	}
}

// prepTickObs sizes and zeroes the per-shard fork-population deltas (the
// fork table only grows at coordinator-side block events, so its length is
// frozen for the tick) and grows the population ledger to match.
func (g *Grid) prepTickObs() {
	nf := len(g.fParent)
	for nf > len(g.forkPop) {
		g.forkPop = append(g.forkPop, 0)
	}
	for s := range g.shPopDelta {
		pd := resizeI32(g.shPopDelta[s], nf)
		for f := range pd {
			pd[f] = 0
		}
		g.shPopDelta[s] = pd
	}
}

// tickShard computes the next state of every cell shard s owns. It runs
// concurrently with other shards: all reads are against the frozen current
// buffers (plus pure fault queries and atomic counters), all writes land in
// next* at owned indices and in the shard's own tally slots.
//
//hot:path
func (g *Grid) tickShard(s int) {
	attacker := -1
	if g.cfg.AttackerShare > 0 {
		attacker = g.attackerIdx
	}
	boundary := g.boundaryActive()
	thresh := g.failThresh53
	tick := g.tickKey
	faulty := g.faults != nil
	clock, lossy := g.flapClock, g.chaosLoss
	obsOn := g.obsOn
	var pd []int32
	if obsOn {
		pd = g.shPopDelta[s]
	}
	var cross, flips int64
	for _, ki := range g.plan.Keys(s) {
		i := int(ki)
		g.nextFork[i] = g.fork[i]
		g.nextHeight[i] = g.height[i]
		g.nextLink[i] = g.link[i]
		// A churned-out cell makes no pull attempt.
		if faulty && g.faults.Down(i) {
			continue
		}
		// Counter-mode draws: c is unique per (step, cell), d1 feeds the
		// failure Bernoulli (53 high bits vs. the precomputed threshold),
		// d2 the neighbor pick (modulo bias < 2^-60 at degree <= 8).
		c := tick + (uint64(i)+1)*parallel.Gamma
		d1 := parallel.Mix64(c)
		if int64(d1>>11) < thresh {
			continue
		}
		lo := g.nbrOff[i]
		d2 := parallel.Mix64(d1 ^ c)
		e := lo + int32(d2%uint64(g.nbrOff[i+1]-lo))
		// Targeted communication disruption: gossip never crosses an
		// active attack boundary.
		if boundary && g.cross[e] != 0 {
			continue
		}
		j := int(g.nbrs[e])
		if faulty {
			if g.faults.Down(j) {
				continue
			}
			if c := g.linkCls[e]; c != faults.LinkUp && g.faults.LinkDown(c, g.linkPhase[e], clock) {
				continue
			}
			if lossy && g.faults.ChaosLossAt(i, g.step) {
				continue
			}
		}
		// Pull-only longest chain: adopt the contacted neighbor's view iff
		// it is strictly higher. The attacker's anchor never abandons its
		// counterfeit branch (§V-B); neighbors pulling *from* the anchor
		// fall through to the general rule.
		hi, hj := g.height[i], g.height[j]
		if hj <= hi {
			continue
		}
		if i == attacker && g.fTainted[g.fork[i]] {
			continue
		}
		if g.plan.Owner(j) != s {
			cross++
		}
		from, to := g.fork[i], g.fork[j]
		g.nextFork[i] = to
		g.nextHeight[i] = hj
		g.nextLink[i] = g.link[j]
		if obsOn && from != to {
			flips++
			pd[from]--
			pd[to]++
		}
	}
	g.shCross[s] += cross
	if obsOn {
		g.shFlips[s] += flips
	}
}

// foldShards merges the per-shard tick tallies on the coordinator, in
// shard order — the deterministic fold the detmerge analyzer enforces.
// Fork deaths are detected from the folded population ledger and emitted
// in fork order at the tick barrier, so the trace is identical for every
// shard count and gang width.
func (g *Grid) foldShards() {
	k := g.plan.Shards()
	for s := 0; s < k; s++ {
		g.shardStats.CrossPulls += g.shCross[s]
		g.shCross[s] = 0
	}
	if !g.obsOn {
		return
	}
	var flips int64
	g.popPrev = append(g.popPrev[:0], g.forkPop...)
	for s := 0; s < k; s++ {
		flips += g.shFlips[s]
		g.shFlips[s] = 0
		for f, d := range g.shPopDelta[s] {
			g.forkPop[f] += int(d)
		}
	}
	if flips > 0 {
		g.obsFlips.Add(uint64(flips))
	}
	for f := range g.forkPop {
		if g.forkPop[f] == 0 && g.popPrev[f] > 0 {
			g.obsForkDeaths.Inc()
			g.obsTrace.Emit(int64(g.step), "gridsim", "fork_death",
				obs.F("fork", ForkID(f).String()))
		}
	}
}
