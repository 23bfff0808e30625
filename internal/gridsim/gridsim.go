// Package gridsim reimplements the paper's R simulation of temporal
// partitioning (§V-B, Figure 7): Bitcoin modelled as a square grid of nodes
// where each discrete time step is one peer-to-peer communication attempt
// per node, communication fails ~10% of the time, and block production is
// split between the honest network and an attacker (30% hash rate in the
// paper's runs) who sustains a counterfeit fork inside the region he
// isolates.
//
// The paper's span ratio governs timing: Tdelay = Tblock / (Rspan · √N), so
// the number of communication steps per block interval is Rspan · √N — how
// many times information can cross the network between blocks. Rspan = 2.0
// "is a good target for blockchain synchronization".
//
// The state is held structure-of-arrays (DESIGN.md §12): parallel flat
// slices per cell (fork, height, link) and per fork (parent, base, tip,
// taint), a precomputed attack-region bitset, and a flat neighbor cache.
// Grid.ResetConfig reuses every backing arena, so a Monte-Carlo ensemble pays
// near-zero steady-state allocations per trial while remaining
// byte-identical to the original array-of-structs implementation.
package gridsim

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/blockchain"
	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ForkID labels a chain branch. Fork 0 is the main chain ("A" in Figure 7);
// subsequent forks are lettered in order of emergence.
type ForkID int

// String renders fork labels as letters A, B, C, … like Figure 7.
func (f ForkID) String() string {
	if f < 0 {
		return "?"
	}
	if f < 26 {
		return string(rune('A' + f))
	}
	return fmt.Sprintf("F%d", int(f))
}

// Config parameterizes a grid simulation.
type Config struct {
	// Size is the grid side length; the paper uses 100 for the full
	// 10,000-node network and presents a size-25 grid in Figure 7.
	Size int
	// SpanRatio is Rspan; steps per block = SpanRatio * Size (√N for an
	// N-cell square grid). Default 2.0.
	SpanRatio float64
	// FailureRate is the per-attempt communication failure probability.
	// Default 0.10.
	FailureRate float64
	// AttackerShare is the attacker's fraction of total hash rate.
	// The paper simulates 0.30. Zero disables the attacker.
	AttackerShare float64
	// AttackerCell is the grid coordinate the attacker controls (Figure 7
	// shows the fork emerging at node [7,7]).
	AttackerRow, AttackerCol int
	// BoundaryRadius encloses the attacked region: while the disruption
	// window is active, gossip crossing the Chebyshev-radius boundary
	// around the attacker cell is blocked. This is the paper's "targeted
	// communication disruption, holding [forks] open long enough to achieve
	// attack objectives" (§IV-B); without it any one-block lead floods the
	// whole synchronized grid and forks are all-or-nothing. Zero disables
	// the boundary.
	BoundaryRadius int
	// BoundaryFrom/BoundaryUntil bound the disruption window in time steps
	// (inclusive-exclusive). With both zero and a positive radius, the
	// boundary is active for the whole run.
	BoundaryFrom, BoundaryUntil int
	// Seed fixes the run.
	Seed int64
	// Obs attaches the observability layer (fork births/deaths, cell
	// flips, block events; trace ticks are grid steps). Nil — the default
	// — disables instrumentation with byte-identical output.
	Obs *obs.Observer
	// Faults selects the fault scenario (DESIGN.md §10), realized by a
	// step-driven faults.GridInjector: churned-out cells neither gossip
	// nor mine, faulty links block exchanges, and chaos adds loss on top
	// of FailureRate. The zero value — the default — injects nothing and
	// leaves the run byte-identical to a faultless build. The attacker's
	// anchor cell never churns.
	Faults faults.Scenario
	// StepBudget, when positive, arms the watchdog (DESIGN.md §11): Advance
	// refuses to run past this many total steps and Exhausted latches, so a
	// runaway trial is cancelled at a deterministic point instead of
	// spinning. Zero disarms the watchdog.
	StepBudget int
	// Shards selects the engine (DESIGN.md §13). Zero — the default — runs
	// the legacy sequential engine, byte-identical to every pre-sharding
	// release. Any value >= 1 runs the synchronous sharded engine: the world
	// is partitioned into contiguous row bands, shards tick concurrently
	// under double buffering, and per-(cell, step) counter-mode randomness
	// makes the output byte-identical at every shard count — shards=1 and
	// shards=16 produce the same study. The two engines use different gossip
	// semantics (push-pull exchange vs. pull-only), so 0 and >= 1 are
	// distinct experiments; among sharded runs only performance changes.
	Shards int
	// ShardWorkers bounds the goroutines ticking shards inside one world;
	// <= 0 means one per CPU. Like Workers everywhere else, it never
	// changes results.
	ShardWorkers int
}

func (c Config) withDefaults() Config {
	if c.SpanRatio == 0 {
		c.SpanRatio = 2.0
	}
	if c.FailureRate == 0 {
		c.FailureRate = 0.10
	}
	return c
}

// StepsPerBlock returns the number of communication steps per block
// interval the configuration implies: SpanRatio · Size, rounded, at least
// one.
func (c Config) StepsPerBlock() int {
	c = c.withDefaults()
	return max(1, int(math.Round(c.SpanRatio*float64(c.Size))))
}

// Validate rejects unusable parameters.
func (c Config) Validate() error {
	if c.Size < 2 {
		return fmt.Errorf("gridsim: size %d too small", c.Size)
	}
	if c.SpanRatio < 0 {
		return fmt.Errorf("gridsim: negative span ratio %v", c.SpanRatio)
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return fmt.Errorf("gridsim: failure rate %v outside [0,1)", c.FailureRate)
	}
	if c.AttackerShare < 0 || c.AttackerShare >= 1 {
		return fmt.Errorf("gridsim: attacker share %v outside [0,1)", c.AttackerShare)
	}
	if c.AttackerRow < 0 || c.AttackerRow >= c.Size || c.AttackerCol < 0 || c.AttackerCol >= c.Size {
		return fmt.Errorf("gridsim: attacker cell (%d,%d) outside %dx%d grid",
			c.AttackerRow, c.AttackerCol, c.Size, c.Size)
	}
	if c.BoundaryRadius < 0 {
		return fmt.Errorf("gridsim: negative boundary radius %d", c.BoundaryRadius)
	}
	if c.BoundaryUntil < 0 || c.BoundaryFrom < 0 || (c.BoundaryUntil > 0 && c.BoundaryUntil < c.BoundaryFrom) {
		return fmt.Errorf("gridsim: invalid boundary window [%d, %d)", c.BoundaryFrom, c.BoundaryUntil)
	}
	if c.StepBudget < 0 {
		return fmt.Errorf("gridsim: negative step budget %d", c.StepBudget)
	}
	if c.Shards < 0 {
		return fmt.Errorf("gridsim: negative shard count %d", c.Shards)
	}
	if c.Shards > c.Size*c.Size {
		return fmt.Errorf("gridsim: shard count %d exceeds %d cells", c.Shards, c.Size*c.Size)
	}
	if c.Shards == 0 && c.ShardWorkers != 0 {
		return fmt.Errorf("gridsim: ShardWorkers needs Shards >= 1")
	}
	return nil
}

// boundaryActive reports whether the disruption window covers the current
// step.
func (g *Grid) boundaryActive() bool {
	if g.cfg.BoundaryRadius <= 0 {
		return false
	}
	if g.step < g.cfg.BoundaryFrom {
		return false
	}
	return g.cfg.BoundaryUntil == 0 || g.step < g.cfg.BoundaryUntil
}

// Grid is a running grid simulation. All mutable state lives in flat
// parallel slices so the gossip loop streams contiguous memory, and every
// slice doubles as an arena that ResetConfig reuses across trials.
type Grid struct {
	cfg Config
	// rng is the inlined replica of rand.New(rand.NewSource(seed)) — a
	// value field, so hot-loop draws involve no pointer chase and no
	// interface dispatch, and reseeding in place costs no allocation.
	rng stats.Fast

	// Per-cell state (index = row*Size + col): the fork the cell follows,
	// that fork's height at this cell, and the 64-bit MD5-linked hash of
	// its chain (the paper's per-node internal error check).
	fork   []int32
	height []int32
	link   []blockchain.Hash

	// Per-fork state (index = ForkID). fTainted[id] caches whether the
	// fork is counterfeit or descends from one; it is fixed at fork birth
	// (parent and counterfeit never change), turning the old
	// ancestry-walking onCounterfeit into one slice load.
	fParent      []int32
	fBase        []int32
	fTip         []int32
	fTipLink     []blockchain.Hash
	fCounterfeit []bool
	fTainted     []bool

	// region is a bitset over cells: bit i set when cell i lies within the
	// attack boundary (Chebyshev radius around the attacker cell),
	// precomputed so the hot loop never recomputes div/mod geometry.
	region      []uint64
	attackerIdx int

	step          int
	stepsPerBlock int
	// blocksMined counts total block events (honest + attacker).
	blocksMined int
	// forksEmerged counts branches created after genesis (fork A excluded).
	forksEmerged int
	// nbrs/nbrOff cache every cell's Moore neighborhood in one flat backing
	// slice: cell i's neighbors are nbrs[nbrOff[i]:nbrOff[i+1]]. One
	// allocation for the whole grid instead of one slice per cell, and the
	// gossip hot loop walks contiguous memory. cross parallels nbrs:
	// cross[e] is 1 when edge e straddles the attack boundary, so the hot
	// loop's disruption check is a single byte load per contact.
	nbrs   []int32
	nbrOff []int32
	cross  []uint8
	// rejMax[i] is the Int31n rejection threshold for cell i's neighbor
	// count, or -1 when the count is a power of two (maskable). Precomputed
	// so the hot loop's neighbor pick composes directly on rng.Uint64 with
	// no per-contact divide.
	rejMax []int32
	// failThresh is the integer form of the failure Bernoulli: the smallest
	// 63-bit draw x with float64(x)/2^63 >= FailureRate, so the hot loop
	// compares raw draws with no int-to-float conversion (see
	// float01Threshold).
	failThresh int64
	// faults is the step-driven injector, nil when Config.Faults is the
	// zero value; communicate skips every fault check behind its nil tests.
	faults *faults.GridInjector
	// linkCls/linkPhase are the compiled link table (DESIGN.md §10), live
	// while faults is: they parallel nbrs, holding each directed edge's
	// link class and flap phase, so a faulty contact's link check is one
	// byte load (plus a time check on a flapping edge) instead of a hash.
	// flapClock is the current step's position in the flap cycle, and
	// chaosLoss hoists the Chaos.LossProb > 0 gate out of the contact loop.
	linkCls   []faults.LinkClass
	linkPhase []time.Duration
	flapClock time.Duration
	chaosLoss bool
	// exhausted latches once Advance refuses to cross Config.StepBudget.
	exhausted bool

	// fcCounts/fcBuf back ForkCounts: per-fork follower tallies and the
	// returned slice, reused call over call.
	fcCounts []int32
	fcBuf    []ForkCount

	// Sharded-engine state (DESIGN.md §13), live only when cfg.Shards >= 1.
	// plan partitions the cells, gang ticks the shards, and nextFork/
	// nextHeight/nextLink double-buffer the per-cell state so every shard
	// reads a frozen tick and writes only its own cells. tickKey is the
	// per-step base of the counter-mode draws; failThresh53 is the failure
	// Bernoulli threshold on 53-bit counter draws (see float53Threshold).
	plan         *shard.Plan
	gang         *parallel.Gang
	tickFn       func(int)
	adjFn        func(int) []int32
	nextFork     []int32
	nextHeight   []int32
	nextLink     []blockchain.Hash
	tickBase     uint64
	tickKey      uint64
	failThresh53 int64
	// Per-shard tick tallies, folded in shard order at the barrier:
	// cross-shard pull counts always, flip counts and fork-population
	// deltas only while observability is on. popPrev is the pre-fold
	// population scratch that detects fork deaths.
	shCross    []int64
	shFlips    []int64
	shPopDelta [][]int32
	popPrev    []int
	shardStats ShardStats

	// Observability (DESIGN.md §9). obsOn gates fork-population tracking
	// so the uninstrumented hot loop pays a single bool check per
	// adoption; forkPop counts followers per fork and is maintained only
	// while obsOn, to notice fork deaths.
	obsOn          bool
	forkPop        []int
	obsTrace       *obs.Tracer
	obsFlips       *obs.Counter
	obsForkBirths  *obs.Counter
	obsForkDeaths  *obs.Counter
	obsHonestBlk   *obs.Counter
	obsAttackerBlk *obs.Counter
}

// FromConfig builds a grid simulation from an explicit Config. All cells
// start on fork A at height 0 with the same genesis link. Most callers use
// New with functional options (options.go); FromConfig is the escape hatch
// for code that assembles configurations programmatically.
func FromConfig(cfg Config) (*Grid, error) {
	g := &Grid{}
	if err := g.ResetConfig(cfg); err != nil {
		return nil, err
	}
	return g, nil
}

// ResetConfig restarts the grid in place under a full new configuration.
// Arenas are reused whenever the grid shape allows: same Size keeps the
// neighbor cache, and all per-cell, per-edge and per-fork slices recycle
// their backing arrays, the compiled link table included. Only the fault
// injector's own state and the observer bindings are rebuilt per reset.
func (g *Grid) ResetConfig(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	sameSize := g.cfg.Size == cfg.Size && g.nbrOff != nil
	g.cfg = cfg
	g.rng.Seed(cfg.Seed)
	n := cfg.Size * cfg.Size
	g.stepsPerBlock = cfg.StepsPerBlock()
	g.step, g.blocksMined, g.forksEmerged = 0, 0, 0
	g.exhausted = false

	genesis := blockchain.Genesis()
	g.fork = resizeI32(g.fork, n)
	g.height = resizeI32(g.height, n)
	g.link = resizeHash(g.link, n)
	for i := 0; i < n; i++ {
		g.fork[i] = 0
		g.height[i] = 0
		g.link[i] = genesis.Hash
	}
	g.fParent = append(g.fParent[:0], -1)
	g.fBase = append(g.fBase[:0], 0)
	g.fTip = append(g.fTip[:0], 0)
	g.fTipLink = append(g.fTipLink[:0], genesis.Hash)
	g.fCounterfeit = append(g.fCounterfeit[:0], false)
	g.fTainted = append(g.fTainted[:0], false)

	if !sameSize {
		g.nbrs = make([]int32, 0, n*8)
		g.nbrOff = make([]int32, n+1)
		for i := 0; i < n; i++ {
			g.nbrOff[i] = int32(len(g.nbrs))
			g.nbrs = g.appendNeighbors(g.nbrs, i)
		}
		g.nbrOff[n] = int32(len(g.nbrs))
	}

	g.attackerIdx = g.idx(cfg.AttackerRow, cfg.AttackerCol)
	words := (n + 63) / 64
	g.region = resizeU64(g.region, words)
	for w := range g.region {
		g.region[w] = 0
	}
	for i := 0; i < n; i++ {
		row, col := i/cfg.Size, i%cfg.Size
		dr, dc := row-cfg.AttackerRow, col-cfg.AttackerCol
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		d := dr
		if dc > d {
			d = dc
		}
		if d <= cfg.BoundaryRadius {
			g.region[uint(i)>>6] |= 1 << (uint(i) & 63)
		}
	}
	if cap(g.cross) >= len(g.nbrs) {
		g.cross = g.cross[:len(g.nbrs)]
	} else {
		g.cross = make([]uint8, len(g.nbrs))
	}
	g.rejMax = resizeI32(g.rejMax, n)
	for i := 0; i < n; i++ {
		for e := g.nbrOff[i]; e < g.nbrOff[i+1]; e++ {
			g.cross[e] = uint8(g.regionBit(i) ^ g.regionBit(int(g.nbrs[e])))
		}
		deg := g.nbrOff[i+1] - g.nbrOff[i]
		if deg&(deg-1) == 0 {
			g.rejMax[i] = -1
		} else {
			g.rejMax[i] = int32((1 << 31) - 1 - (1<<31)%uint32(deg))
		}
	}
	g.failThresh = float01Threshold(cfg.FailureRate)

	g.faults = nil
	if cfg.Faults.Enabled() {
		// Scenario durations are converted to steps through the paper's
		// Tdelay = Tblock / (Rspan·√N), so one scenario means the same
		// physical fault load here as in the event-driven simulator.
		stepDur := mining.BlockInterval / time.Duration(g.stepsPerBlock)
		exempt := -1
		if cfg.AttackerShare > 0 {
			exempt = g.attackerIdx
		}
		injector, err := faults.NewGridInjector(cfg.Faults,
			parallel.DeriveSeed(cfg.Seed, faultsSeedSalt), n, stepDur, exempt, cfg.Obs)
		if err != nil {
			return fmt.Errorf("gridsim: %w", err)
		}
		g.faults = injector
		g.compileLinks(n)
		g.chaosLoss = cfg.Faults.Chaos.LossProb > 0
	}

	g.obsOn = false
	g.obsTrace, g.obsFlips, g.obsForkBirths, g.obsForkDeaths = nil, nil, nil, nil
	g.obsHonestBlk, g.obsAttackerBlk = nil, nil
	if o := cfg.Obs; o != nil && (o.Registry() != nil || o.Tracer() != nil) {
		g.obsOn = true
		g.forkPop = append(g.forkPop[:0], n) // every cell starts on fork A
		reg := o.Registry()
		g.obsTrace = o.Tracer()
		g.obsFlips = reg.Counter("gridsim.cell_flips")
		g.obsForkBirths = reg.Counter("gridsim.fork_births")
		g.obsForkDeaths = reg.Counter("gridsim.fork_deaths")
		g.obsHonestBlk = reg.Counter("gridsim.blocks_mined", obs.L("miner", "honest"))
		g.obsAttackerBlk = reg.Counter("gridsim.blocks_mined", obs.L("miner", "attacker"))
	}

	g.plan, g.gang, g.tickFn = nil, nil, nil
	g.shardStats = ShardStats{}
	if cfg.Shards >= 1 {
		if err := g.resetSharded(cfg, n); err != nil {
			return err
		}
	}
	return nil
}

// compileLinks fills the link table: the class and flap phase of every
// directed edge, classified once per reset by the injector. The grid's
// edges are fixed, so the step loops never classify a link again.
func (g *Grid) compileLinks(n int) {
	m := len(g.nbrs)
	if cap(g.linkCls) >= m {
		g.linkCls, g.linkPhase = g.linkCls[:m], g.linkPhase[:m]
	} else {
		g.linkCls, g.linkPhase = make([]faults.LinkClass, m), make([]time.Duration, m)
	}
	for i := 0; i < n; i++ {
		for e := g.nbrOff[i]; e < g.nbrOff[i+1]; e++ {
			g.linkCls[e], g.linkPhase[e] = g.faults.LinkClass(i, int(g.nbrs[e]))
		}
	}
}

// resizeI32 returns a slice of length n, reusing s's backing array when it
// is large enough.
func resizeI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// resizeU64 returns a slice of length n, reusing s's backing array when it
// is large enough.
func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

// resizeHash returns a slice of length n, reusing s's backing array when it
// is large enough.
func resizeHash(s []blockchain.Hash, n int) []blockchain.Hash {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]blockchain.Hash, n)
}

// regionBit returns 1 when cell i lies within the attack boundary.
//
//hot:path
func (g *Grid) regionBit(i int) uint64 {
	return g.region[uint(i)>>6] >> (uint(i) & 63) & 1
}

// trackFlip maintains the fork-population ledger while observability is
// on: a cell moved from one fork to another, which may kill the old fork.
// Callers gate on g.obsOn.
func (g *Grid) trackFlip(from, to ForkID) {
	g.obsFlips.Inc()
	for int(to) >= len(g.forkPop) {
		g.forkPop = append(g.forkPop, 0)
	}
	g.forkPop[from]--
	g.forkPop[to]++
	if g.forkPop[from] == 0 {
		g.obsForkDeaths.Inc()
		g.obsTrace.Emit(int64(g.step), "gridsim", "fork_death",
			obs.F("fork", from.String()))
	}
}

// trackBirth records a freshly created branch. Callers gate on g.obsOn.
func (g *Grid) trackBirth(id ForkID) {
	g.obsForkBirths.Inc()
	g.obsTrace.Emit(int64(g.step), "gridsim", "fork_birth",
		obs.F("fork", id.String()),
		obs.F("parent", ForkID(g.fParent[id]).String()),
		obs.Fint("base_height", int64(g.fBase[id])),
		obs.Fbool("counterfeit", g.fCounterfeit[id]))
}

// adopt copies src's chain view into dst, tracking the fork flip when
// observability is on. It is the single adoption point of the gossip loop.
//
//hot:path
func (g *Grid) adopt(dst, src int) {
	if g.obsOn && g.fork[dst] != g.fork[src] {
		//lint:ignore hotescape trackFlip's forkPop append is amortized (grow-once ledger) and only runs with observability on
		g.trackFlip(ForkID(g.fork[dst]), ForkID(g.fork[src]))
	}
	g.fork[dst] = g.fork[src]
	g.height[dst] = g.height[src]
	g.link[dst] = g.link[src]
}

// StepsPerBlock returns the number of communication steps per block
// interval implied by the span ratio.
func (g *Grid) StepsPerBlock() int { return g.stepsPerBlock }

// BudgetErr returns nil, or the watchdog cancellation as an error wrapping
// checkpoint.ErrBudget so supervised runners journal the trial as exhausted
// rather than quarantined.
func (g *Grid) BudgetErr() error {
	if !g.exhausted {
		return nil
	}
	return fmt.Errorf("%w: step budget %d hit with the run unfinished",
		checkpoint.ErrBudget, g.cfg.StepBudget)
}

// Step returns the current time step.
//
//lint:ignore unusedexport pinned by the soa_* golden digest (step=...)
func (g *Grid) Step() int { return g.step }

// BlocksMined returns the number of block events so far.
//
//lint:ignore unusedexport pinned by the soa_* golden and millionNodeGolden digests
func (g *Grid) BlocksMined() int { return g.blocksMined }

// ForksEmerged returns how many forks (beyond the main chain) appeared.
func (g *Grid) ForksEmerged() int { return g.forksEmerged }

// NumCells returns the number of cells in the grid.
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func (g *Grid) NumCells() int { return len(g.fork) }

func (g *Grid) idx(row, col int) int { return row*g.cfg.Size + col }

// neighbors returns the cached Moore (8-cell) neighborhood, matching
// Bitcoin's default of 8 peers, clipped at the grid boundary.
func (g *Grid) neighbors(i int) []int32 { return g.nbrs[g.nbrOff[i]:g.nbrOff[i+1]] }

func (g *Grid) appendNeighbors(out []int32, i int) []int32 {
	size := g.cfg.Size
	row, col := i/size, i%size
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			r, c := row+dr, col+dc
			if r < 0 || r >= size || c < 0 || c >= size {
				continue
			}
			out = append(out, int32(g.idx(r, c)))
		}
	}
	return out
}

// faultsSeedSalt namespaces the fault-injection streams off the run seed
// (the grid injector further namespaces its own families), so enabling a
// scenario never perturbs any existing simulation draw.
const faultsSeedSalt = 0xFA17

// Advance runs n time steps. Each step: churned cells flip state (faults
// on), every up cell makes one communication attempt with a random
// neighbor (adopting the neighbor's chain if strictly higher, longest-chain
// rule), and every stepsPerBlock steps one block is mined by the attacker
// (probability AttackerShare) or the honest network.
func (g *Grid) Advance(n int) {
	if g.cfg.Shards >= 1 {
		g.advanceSharded(n)
		return
	}
	for i := 0; i < n; i++ {
		if g.cfg.StepBudget > 0 && g.step >= g.cfg.StepBudget {
			g.exhausted = true
			return
		}
		g.step++
		if g.faults != nil {
			g.faults.StepChurn(g.step)
			g.flapClock = g.faults.FlapClock(g.step)
		}
		g.communicate()
		if g.stepsPerBlock > 0 && g.step%g.stepsPerBlock == 0 {
			g.mineBlock()
		}
	}
}

// oneThresh is the smallest 63-bit draw whose Float64 derivation rounds to
// exactly 1.0 — the band math/rand redraws. Hoisted so the hot loops test
// it as a raw integer compare.
var oneThresh = float01Threshold(1)

// float01Threshold returns the smallest 63-bit draw x such that
// float64(x)/2^63 >= p. The mapping from draw to variate is monotone, so
// "variate < p" is exactly "draw < threshold": the hot loops compare raw
// integer draws against a precomputed threshold instead of converting
// every draw to a float. The search evaluates the real derivation, double
// rounding included, so the boundary cases where float64(x) rounds onto p
// land on the same side as math/rand's comparison.
func float01Threshold(p float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// communicate performs one gossip attempt per cell in index order. The
// fault-injector checks sit behind nil tests of g.faults, so a zero-value
// Faults config makes exactly the draws of a faultless run and stays
// byte-identical to it. g.faults, g.flapClock and g.chaosLoss are read
// where they are used, not hoisted into locals: a loop-invariant local
// lives across the adopt calls, so the compiler reloads it from the stack
// at every continue, faultless runs included. Equal heights are rejected
// before any fork lookup: no adoption rule fires on a tie (the attacker
// pushes and the symmetric exchange adopts only on strict inequality), and
// in a mostly synced grid ties are the common case.
//
// Both per-cell draws are composed directly on rng.Uint64 — the only Fast
// method small enough to inline — rather than calling Float64/Int31n:
// the derivations below are line-for-line those of rand.Rand.Float64 and
// rand.Rand.Int31n (with the rejection threshold precomputed in rejMax),
// so the stream is draw-identical; TestFastMatchesMathRand pins the method
// forms and the integration goldens pin these fused forms.
//
//hot:path
func (g *Grid) communicate() {
	attacker := -1
	if g.cfg.AttackerShare > 0 {
		attacker = g.attackerIdx
	}
	boundary := g.boundaryActive()
	thresh := g.failThresh
	n := len(g.fork)
	for i := 0; i < n; i++ {
		// A churned-out cell makes no communication attempt at all — its rng
		// draws are skipped entirely, like a node that simply is not there.
		if fi := g.faults; fi != nil && fi.Down(i) {
			continue
		}
		// Bernoulli(p) = Float64() < p, as pure integer compares: draws in
		// the rounds-to-1.0 band are redrawn exactly as math/rand does, and
		// the failure test is draw < float01Threshold(p).
		x := int64(g.rng.Uint64() &^ (1 << 63))
		for x >= oneThresh {
			x = int64(g.rng.Uint64() &^ (1 << 63))
		}
		if x < thresh {
			continue
		}
		// Int31n(deg): mask when deg is a power of two, otherwise
		// reject-and-mod against the precomputed threshold.
		lo := g.nbrOff[i]
		w := int32((g.rng.Uint64() &^ (1 << 63)) >> 32)
		var k int32
		if m := g.rejMax[i]; m < 0 {
			k = w & (g.nbrOff[i+1] - lo - 1)
		} else {
			for w > m {
				w = int32((g.rng.Uint64() &^ (1 << 63)) >> 32)
			}
			k = w % (g.nbrOff[i+1] - lo)
		}
		e := lo + k
		// Targeted communication disruption: while the attack boundary is
		// active, gossip crossing it is blocked.
		if boundary && g.cross[e] != 0 {
			continue
		}
		j := int(g.nbrs[e])
		// Fault injection: a down partner, a dead/flapping/one-way link, or
		// chaos loss kills the exchange (DESIGN.md §10). The link check reads
		// the compiled table; chaos draws only for a live link.
		if fi := g.faults; fi != nil {
			if fi.Down(j) {
				continue
			}
			if c := g.linkCls[e]; c != faults.LinkUp && fi.LinkDown(c, g.linkPhase[e], g.flapClock) {
				continue
			}
			if g.chaosLoss && fi.ChaosLoss() {
				continue
			}
		}
		hi, hj := g.height[i], g.height[j]
		if hi == hj {
			continue
		}
		// Once the attacker's cell is on the counterfeit branch it never
		// adopts the honest chain — it is the anchor that keeps the branch
		// alive (§V-B: the attacker "sustains" the isolated portion "with
		// successive forks"). Before the attack fork exists it behaves
		// honestly. Attacker only pushes, never pulls.
		if i == attacker {
			if g.fTainted[g.fork[i]] {
				if hi > hj {
					g.adopt(j, i)
				}
				continue
			}
		} else if j == attacker {
			if g.fTainted[g.fork[j]] {
				if hj > hi {
					g.adopt(i, j)
				}
				continue
			}
		}
		// Symmetric exchange: the lower-height side adopts the higher.
		if hi > hj {
			g.adopt(j, i)
		} else {
			g.adopt(i, j)
		}
	}
}

// mineBlock resolves one block event.
func (g *Grid) mineBlock() {
	g.blocksMined++
	if g.cfg.AttackerShare > 0 && g.rng.Bernoulli(g.cfg.AttackerShare) {
		g.obsAttackerBlk.Inc()
		g.mineAttacker()
		return
	}
	g.obsHonestBlk.Inc()
	g.mineHonest()
}

// newFork appends a branch rooted at parent and returns its id. The taint
// flag — counterfeit or descended from counterfeit — is computed here,
// once, because a fork's parent and counterfeit bit never change.
func (g *Grid) newFork(parent int32, base int32, tipLink blockchain.Hash, counterfeit bool) ForkID {
	id := ForkID(len(g.fParent))
	g.fParent = append(g.fParent, parent)
	g.fBase = append(g.fBase, base)
	g.fTip = append(g.fTip, base+1)
	g.fTipLink = append(g.fTipLink, tipLink)
	g.fCounterfeit = append(g.fCounterfeit, counterfeit)
	g.fTainted = append(g.fTainted, counterfeit || g.fTainted[parent])
	g.forksEmerged++
	return id
}

// mineHonest extends the chain at a uniformly random cell that follows an
// honest branch — the paper's model keeps the honest 70% of hash power on
// the main network, which is why the longer chain A eventually overwhelms
// the attacker's fork (Figure 7(c)). If the mining cell's local view is the
// tip of its fork, the fork simply grows; if the view is stale (the miner
// has not heard the latest block yet), a new competing branch emerges —
// exactly how natural forks arise from propagation delay.
func (g *Grid) mineHonest() {
	i := g.pickHonestCell()
	f := g.fork[i]
	if g.fTainted[f] {
		// The whole grid is captured: the honest miners (whose hash power is
		// not tied to captured full nodes) publish on the tallest honest
		// fork, re-seeding it at this cell.
		t := g.tallestHonestFork()
		g.fTip[t]++
		g.fTipLink[t] = blockchain.HashBlock(g.fTipLink[t], int(g.fTip[t]), 0, 0, nil, false)
		if g.obsOn && f != t {
			g.trackFlip(ForkID(f), ForkID(t))
		}
		g.fork[i] = t
		g.height[i] = g.fTip[t]
		g.link[i] = g.fTipLink[t]
		return
	}
	if g.height[i] == g.fTip[f] && g.link[i] == g.fTipLink[f] {
		g.fTip[f]++
		g.fTipLink[f] = blockchain.HashBlock(g.fTipLink[f], int(g.fTip[f]), 0, 0, nil, false)
		g.height[i] = g.fTip[f]
		g.link[i] = g.fTipLink[f]
		return
	}
	// Stale view: a new branch is born on top of the miner's local state.
	nf := g.newFork(f, g.height[i],
		blockchain.HashBlock(g.link[i], int(g.height[i])+1, 0, 0, nil, false), false)
	if g.obsOn {
		g.trackBirth(nf)
		g.trackFlip(ForkID(f), nf)
	}
	g.fork[i] = int32(nf)
	g.height[i] = g.fTip[nf]
	g.link[i] = g.fTipLink[nf]
}

// pickHonestCell samples a uniformly random cell following an honest branch
// (and outside an active attack boundary — the honest hash power publishes
// on the main network), falling back to any cell when none remain.
func (g *Grid) pickHonestCell() int {
	boundary := g.boundaryActive()
	n := len(g.fork)
	// Rejection sampling keeps the common case O(1); bounded attempts avoid
	// degenerate loops when nearly everything is captured.
	for attempt := 0; attempt < 64; attempt++ {
		i := g.rng.Intn(n)
		if g.fTainted[g.fork[i]] {
			continue
		}
		if boundary && g.regionBit(i) != 0 {
			continue
		}
		// Churned-out cells are not publishing anyone's blocks.
		if g.faults != nil && g.faults.Down(i) {
			continue
		}
		return i
	}
	return g.rng.Intn(n)
}

// tallestHonestFork returns the untainted fork with the greatest tip
// height (ties favor the earliest fork). Fork 0 is never tainted, so the
// result is always valid.
func (g *Grid) tallestHonestFork() int32 {
	best := int32(-1)
	var bestTip int32
	for id := range g.fParent {
		if g.fTainted[id] {
			continue
		}
		if best < 0 || g.fTip[id] > bestTip {
			best, bestTip = int32(id), g.fTip[id]
		}
	}
	return best
}

// mineAttacker extends (or creates) the counterfeit branch anchored at the
// attacker's cell.
func (g *Grid) mineAttacker() {
	i := g.attackerIdx
	f := g.fork[i]
	if !g.fCounterfeit[f] {
		// First attack block: branch off the attacker's current view.
		nf := g.newFork(f, g.height[i],
			blockchain.HashBlock(g.link[i], int(g.height[i])+1, 1, 0, nil, true), true)
		if g.obsOn {
			g.trackBirth(nf)
			g.trackFlip(ForkID(f), nf)
		}
		g.fork[i] = int32(nf)
		g.height[i] = g.fTip[nf]
		g.link[i] = g.fTipLink[nf]
		return
	}
	g.fTip[f]++
	g.fTipLink[f] = blockchain.HashBlock(g.fTipLink[f], int(g.fTip[f]), 1, 0, nil, true)
	g.height[i] = g.fTip[f]
	g.link[i] = g.fTipLink[f]
}

// ForkCount is one branch's follower tally.
type ForkCount struct {
	Fork  ForkID
	Cells int
}

// ForkCounts tallies the cells following each live fork, sorted by fork id
// ascending. The returned slice is an internal buffer reused call over
// call: it is valid until the next ForkCounts or Snapshot on this grid.
// This is the allocation-free form of Snapshot's ForkCounts map for
// per-step observers.
func (g *Grid) ForkCounts() []ForkCount {
	nf := len(g.fParent)
	g.fcCounts = resizeI32(g.fcCounts, nf)
	for i := range g.fcCounts {
		g.fcCounts[i] = 0
	}
	for _, f := range g.fork {
		g.fcCounts[f]++
	}
	g.fcBuf = g.fcBuf[:0]
	for id, c := range g.fcCounts {
		if c > 0 {
			g.fcBuf = append(g.fcBuf, ForkCount{Fork: ForkID(id), Cells: int(c)})
		}
	}
	return g.fcBuf
}

// MaxHeight returns the global best height across all cells.
func (g *Grid) MaxHeight() int {
	var m int32
	for _, h := range g.height {
		if h > m {
			m = h
		}
	}
	return int(m)
}

// StaleCells returns the number of cells strictly behind the global best
// height.
func (g *Grid) StaleCells() int {
	var m int32
	for _, h := range g.height {
		if h > m {
			m = h
		}
	}
	n := 0
	for _, h := range g.height {
		if h < m {
			n++
		}
	}
	return n
}

// Snapshot captures the observable state of the grid at the current step.
type Snapshot struct {
	Step int
	// ForkCounts maps fork label to the number of cells following it.
	ForkCounts map[ForkID]int
	// MaxHeight is the global best height across all cells.
	MaxHeight int
	// LagCounts[k] is the number of cells k blocks behind MaxHeight,
	// bucketed like Figure 6: index 0 synced, 1, 2 (2-4), 3 (5-10), 4 (>10).
	Lag [5]int
}

// Snapshot returns the current state summary. It allocates a fresh
// ForkCounts map and is meant for rendered output paths; hot per-step
// observers should use ForkCounts, MaxHeight, and StaleCells instead.
func (g *Grid) Snapshot() Snapshot {
	s := Snapshot{Step: g.step, ForkCounts: map[ForkID]int{}}
	for _, fc := range g.ForkCounts() {
		s.ForkCounts[fc.Fork] = fc.Cells
	}
	var max int32
	for _, h := range g.height {
		if h > max {
			max = h
		}
	}
	s.MaxHeight = int(max)
	for _, h := range g.height {
		behind := max - h
		switch {
		case behind <= 0:
			s.Lag[0]++
		case behind == 1:
			s.Lag[1]++
		case behind <= 4:
			s.Lag[2]++
		case behind <= 10:
			s.Lag[3]++
		default:
			s.Lag[4]++
		}
	}
	return s
}

// CounterfeitCells returns how many cells currently follow an
// attacker-produced branch (directly or via a descendant branch).
func (g *Grid) CounterfeitCells() int {
	n := 0
	for _, f := range g.fork {
		if g.fTainted[f] {
			n++
		}
	}
	return n
}

// Render draws the grid as ASCII, one letter per cell giving its fork
// label, mirroring Figure 7's colour maps.
func (g *Grid) Render() string {
	var b strings.Builder
	for r := 0; r < g.cfg.Size; r++ {
		for c := 0; c < g.cfg.Size; c++ {
			b.WriteString(ForkID(g.fork[g.idx(r, c)]).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DominantFork returns the fork followed by the most cells and its count.
func (s Snapshot) DominantFork() (ForkID, int) {
	best, bestN := ForkID(-1), -1
	for id, n := range s.ForkCounts {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best, bestN
}
