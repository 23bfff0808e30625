package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The lag trace models each node's consensus view over time, reproducing
// the paper's Figure 6 stacked series and the Table V vulnerability
// optimization. The process:
//
//   - Blocks arrive as a Poisson process with the 600 s Bitcoin interval.
//   - When a block is published, every up node that was synced becomes one
//     block behind and schedules a catch-up after an exponential delay with
//     its per-node mean (seconds for stable nodes, minutes for waverers,
//     tens of hours for stale nodes). Nodes already catching up simply fall
//     further behind until their catch-up fires, then sync to the tip.
//   - Episodes — network-wide slowdowns (congestion, connectivity events) —
//     multiply catch-up delays while active. They produce the tall yellow/
//     purple spikes of Figure 6(b) where up to ~90% of the network lags.
//
// The paper defines the lagging time L(t) of a node lagging at time t as
// the minimum time until it catches up; a node is vulnerable for constraint
// T if L(t) >= T (Table V).

// TraceConfig parameterizes a trace run.
type TraceConfig struct {
	// Duration is the simulated time span (the paper's general trend spans
	// two months; Figure 6(b) one day; Figure 6(c) ten minutes).
	Duration time.Duration
	// SampleEvery is the sampling interval (10 min for Figures 6(a,b),
	// 1 min for Figure 6(c)).
	SampleEvery time.Duration
	// Seed fixes the run (independent of the population seed).
	Seed int64
	// EpisodesPerDay is the Poisson rate of network-wide slowdown episodes.
	// Default 3.
	EpisodesPerDay float64
	// EpisodeMeanDuration is the mean episode length. Default 40 min.
	EpisodeMeanDuration time.Duration
	// EpisodeSlowdownMax bounds the uniform delay multiplier during an
	// episode (drawn from [3, max]). Default 8.
	EpisodeSlowdownMax float64
	// TrackSyncedByAS records per-AS synced-node counts at every sample
	// (needed for Table VII / Figure 8; costs memory on long traces).
	TrackSyncedByAS bool
	// VulnerabilityWindows are the timing constraints T for which each
	// sample records vulnerable-node counts (Table V). Empty means no
	// window scan and no Vulnerable rows; Table V passes
	// DefaultVulnerabilityWindows.
	VulnerabilityWindows []time.Duration
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.EpisodesPerDay == 0 {
		c.EpisodesPerDay = 3
	}
	if c.EpisodeMeanDuration == 0 {
		c.EpisodeMeanDuration = 40 * time.Minute
	}
	if c.EpisodeSlowdownMax == 0 {
		c.EpisodeSlowdownMax = 8
	}
	return c
}

// DefaultVulnerabilityWindows returns Table V's timing constraints,
// {5,10,15,20,25,30,40,70,200} minutes.
func DefaultVulnerabilityWindows() []time.Duration {
	mins := []int{5, 10, 15, 20, 25, 30, 40, 70, 200}
	out := make([]time.Duration, len(mins))
	for i, m := range mins {
		out[i] = time.Duration(m) * time.Minute
	}
	return out
}

// LagThresholds are the block-lag thresholds of Table V's columns.
var lagThresholds = [3]int{1, 2, 5}

// Sample is one sampling instant of the trace.
type Sample struct {
	T time.Duration
	// Buckets stacks nodes by blocks-behind, Figure 6's series: index 0
	// synced, then 1, 2-4, 5-10, >10.
	Buckets [5]int
	// UpNodes is the number of reachable nodes at the sample.
	UpNodes int
	// Vulnerable[i][j] counts nodes that are at least lagThresholds[j]
	// blocks behind AND will remain behind for at least
	// VulnerabilityWindows[i] more time (the paper's L(t) >= T). Nil
	// without windows.
	Vulnerable [][3]int
	// ASSynced[k] counts the synced nodes of AS Trace.ASNs[k]; nil unless
	// TrackSyncedByAS. The rows of a trace share one backing array.
	ASSynced []int32
	// EpisodeActive records whether a slowdown episode covered this sample.
	EpisodeActive bool
}

// Trace is the result of a lag-process run.
type Trace struct {
	Config  TraceConfig
	Samples []Sample
	// ASNs maps a slot of Sample.ASSynced to its AS: every AS hosting an
	// up node, in order of its first up node. Nil unless TrackSyncedByAS.
	ASNs []topology.ASN
	// Blocks is the number of blocks published during the trace.
	Blocks int
}

// idle is the catch-up time of a node with no catch-up pending: it is past
// every trace instant, so a synced node never passes the "catch-up due"
// test and needs no separate flag.
const idle = time.Duration(math.MaxInt64)

// bucketOf maps blocks-behind 0..10 to its Buckets index; more than 10
// behind is bucket 4.
var bucketOf = [11]uint8{0, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3}

// lagView is the lag state the sample step reads: the kernel's live
// arrays, or a snapshot of them taken at a sample instant. Index i is the
// i-th up node in population order, which is the order catch-up delays are
// drawn in.
type lagView struct {
	// syncedTo is the height the node has fully verified.
	syncedTo []int32
	// catchupAt is when the node jumps to the tip, idle if synced.
	catchupAt []time.Duration
	tip       int32
}

// traceKernel is the block step's state, the lag process compiled into
// dense per-up-node arrays (DESIGN.md §12). It owns the only RNG draws of
// the trace.
type traceKernel struct {
	// lambda is the catch-up rate 1/MeanCatchup.Seconds().
	lambda []float64
	lagView
}

// traceSampler is the sample step's scratch. It only reads the lag state,
// so it can fold snapshots on another goroutine while the block step runs
// ahead.
type traceSampler struct {
	// windows are the ascending timing constraints; hist[k][j] counts the
	// nodes at a sample that stay behind for exactly the first k windows,
	// in threshold class j (behind 1, 2-4, >=5 blocks).
	windows []time.Duration
	hist    [][3]int
	// Per-AS sync tracking (nil when untracked): slot is the node's dense
	// AS index, slotASN its inverse.
	slot    []int32
	slotASN []topology.ASN
}

// compileTrace lays out the kernel for the population's up nodes, all
// synced at height 0, and the sampler that reads it.
func (p *Population) compileTrace(cfg TraceConfig) (*traceKernel, *traceSampler) {
	up := 0
	for i := range p.Nodes {
		if p.Nodes[i].Up {
			up++
		}
	}
	k := &traceKernel{
		lambda: make([]float64, 0, up),
		lagView: lagView{
			syncedTo:  make([]int32, up),
			catchupAt: make([]time.Duration, up),
		},
	}
	sm := &traceSampler{
		windows: cfg.VulnerabilityWindows,
		hist:    make([][3]int, len(cfg.VulnerabilityWindows)+1),
	}
	var slots map[topology.ASN]int32
	if cfg.TrackSyncedByAS {
		sm.slot = make([]int32, 0, up)
		sm.slotASN = make([]topology.ASN, 0, len(p.ASRows))
		slots = make(map[topology.ASN]int32, len(p.ASRows))
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if !n.Up {
			continue
		}
		k.lambda = append(k.lambda, 1/n.MeanCatchup.Seconds())
		if slots != nil {
			s, ok := slots[n.ASN]
			if !ok {
				s = int32(len(sm.slotASN))
				slots[n.ASN] = s
				sm.slotASN = append(sm.slotASN, n.ASN)
			}
			sm.slot = append(sm.slot, s)
		}
	}
	for i := range k.catchupAt {
		k.catchupAt[i] = idle
	}
	return k, sm
}

// block publishes a block at now: a due catch-up fires first (to the tip
// before this block), then every node without a pending catch-up draws
// one, its delay stretched by the episode factor slow.
//
//hot:path
func (k *traceKernel) block(rng *stats.Fast, now time.Duration, slow float64) {
	prev := k.tip
	k.tip++
	for i, c := range k.catchupAt {
		if c <= now {
			k.syncedTo[i] = prev
			c = idle
		}
		if c == idle {
			delay := rng.ExpFloat64() / k.lambda[i]
			delay *= slow
			k.catchupAt[i] = now + time.Duration(delay*float64(time.Second))
		}
		// Nodes mid-catch-up fall further behind; their catchupAt
		// stands (they will sync to the tip as of that moment).
	}
}

// sample records v at now into s: its buckets, its vulnerable counts (into
// s.Vulnerable, preallocated, when there are windows) and its per-slot
// synced counts (into s.ASSynced, zeroed, when tracked). It writes only
// the sampler's scratch and s. A catch-up due by now counts as synced
// without being fired: no block arrived since it fell due, so the next
// block fires it with the same tip, and every sample before that block
// sees it due as well.
//
//hot:path
func (sm *traceSampler) sample(v *lagView, now time.Duration, s *Sample) {
	for j := range sm.hist {
		sm.hist[j] = [3]int{}
	}
	tip := v.tip
	for i, c := range v.catchupAt {
		// A node is synced exactly when no catch-up is pending: it went
		// pending when the first block it lacks arrived.
		if c <= now || c == idle {
			s.Buckets[0]++
			if s.ASSynced != nil {
				s.ASSynced[sm.slot[i]]++
			}
			continue
		}
		behind := tip - v.syncedTo[i]
		b := 4
		if behind <= 10 {
			b = int(bucketOf[behind])
		}
		s.Buckets[b]++
		if len(sm.windows) == 0 {
			continue
		}
		// The node is vulnerable for the leading windows its remaining lag
		// reaches.
		remaining := c - now
		w := 0
		for w < len(sm.windows) && remaining >= sm.windows[w] {
			w++
		}
		if w > 0 {
			sm.hist[w][min(b-1, 2)]++
		}
	}
	s.UpNodes = len(v.catchupAt)
	// Vulnerable[wi][ti] counts nodes reaching window wi or later in class
	// ti or higher: a suffix sum over both axes of hist.
	var acc [3]int
	for wi := len(sm.windows) - 1; wi >= 0; wi-- {
		h := sm.hist[wi+1]
		acc[0] += h[0]
		acc[1] += h[1]
		acc[2] += h[2]
		s.Vulnerable[wi] = [3]int{acc[0] + acc[1] + acc[2], acc[1] + acc[2], acc[2]}
	}
}

// tracePhase is the number of samples the block task snapshots per phase
// while the sample task folds the previous phase's. Two batches of 8
// snapshots of the ~11,000 up nodes come to about 2.2 MB, which stays near
// the L2 cache; 32 per phase (8.7 MB) made a full study slower.
const tracePhase = 8

// traceSnap is one sample instant as the block task left it.
type traceSnap struct {
	lagView
	now     time.Duration
	episode bool
}

// snapBatches allocates two batches of slots snapshots of up nodes each,
// on one backing array per field.
func snapBatches(up, slots int) [2][]traceSnap {
	catchupAt := make([]time.Duration, 2*slots*up)
	syncedTo := make([]int32, 2*slots*up)
	snaps := make([]traceSnap, 2*slots)
	for i := range snaps {
		lo, hi := i*up, (i+1)*up
		snaps[i].catchupAt = catchupAt[lo:hi:hi]
		snaps[i].syncedTo = syncedTo[lo:hi:hi]
	}
	return [2][]traceSnap{snaps[:slots], snaps[slots:]}
}

// take copies the kernel's lag state into the snapshot.
//
//hot:path
func (sn *traceSnap) take(k *traceKernel, now time.Duration, episode bool) {
	copy(sn.catchupAt, k.catchupAt)
	copy(sn.syncedTo, k.syncedTo)
	sn.tip = k.tip
	sn.now = now
	sn.episode = episode
}

// RunTrace simulates the lag process over the population. It runs only
// the folds cfg asks for: the Table V window scan when cfg has windows, the
// per-AS synced rows when cfg.TrackSyncedByAS.
//
// It runs as a two-task pipeline on a parallel.Gang, one phase of
// tracePhase samples at a time. Task 0 alone owns the RNG and the live
// kernel: it advances blocks in event order and snapshots the lag state at
// each sample instant of the phase. Task 1 folds the previous phase's
// snapshots into their samples. The draws are those of the sequential
// event loop, in its order, and the tasks write disjoint memory, so the
// trace is the same at any width; at width 1 the gang runs both inline.
func (p *Population) RunTrace(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 || cfg.SampleEvery <= 0 {
		return nil, errors.New("dataset: trace needs positive duration and sample interval")
	}
	if cfg.SampleEvery > cfg.Duration {
		return nil, fmt.Errorf("dataset: sample interval %v exceeds duration %v", cfg.SampleEvery, cfg.Duration)
	}
	for i, w := range cfg.VulnerabilityWindows {
		if w <= 0 || (i > 0 && w <= cfg.VulnerabilityWindows[i-1]) {
			return nil, fmt.Errorf("dataset: vulnerability windows %v must be positive and strictly ascending", cfg.VulnerabilityWindows)
		}
	}
	rng := new(stats.Fast)
	rng.Seed(cfg.Seed)
	k, sm := p.compileTrace(cfg)

	// Pre-draw episode schedule for the whole trace.
	episodes := drawEpisodes(rng, cfg)

	nSamples := int(cfg.Duration / cfg.SampleEvery)
	nw := len(cfg.VulnerabilityWindows)
	var vulnerable [][3]int
	if nw > 0 {
		vulnerable = make([][3]int, nSamples*nw)
	}
	trace := &Trace{Config: cfg, Samples: make([]Sample, nSamples), ASNs: sm.slotASN}
	nas := len(sm.slotASN)
	var synced []int32
	if cfg.TrackSyncedByAS {
		synced = make([]int32, nSamples*nas)
	}
	batches := snapBatches(len(k.lambda), min(tracePhase, nSamples))
	nPhases := (nSamples + tracePhase - 1) / tracePhase

	// batch returns the snapshot slots of phase ph.
	batch := func(ph int) []traceSnap {
		return batches[ph%2][:min(tracePhase, nSamples-ph*tracePhase)]
	}

	// Task 0's event loop over two interleaved clocks: Poisson block
	// arrivals and the regular sampling grid.
	blockRate := 1 / BlockInterval.Seconds()
	nextBlock := time.Duration(rng.ExpFloat64() / blockRate * float64(time.Second))
	nextSample := cfg.SampleEvery
	blocks := 0
	advance := func(snaps []traceSnap) {
		for i := range snaps {
			for nextBlock <= nextSample {
				now := nextBlock
				blocks++
				k.block(rng, now, episodeMultiplier(episodes, now))
				nextBlock = now + time.Duration(rng.ExpFloat64()/blockRate*float64(time.Second))
			}
			snaps[i].take(k, nextSample, episodeMultiplier(episodes, nextSample) > 1)
			nextSample += cfg.SampleEvery
		}
	}
	// Task 1's fold of a phase's snapshots into samples first, first+1, ...
	fold := func(snaps []traceSnap, first int) {
		for i := range snaps {
			sn := &snaps[i]
			n := first + i
			s := &trace.Samples[n]
			*s = Sample{T: sn.now, EpisodeActive: sn.episode}
			if nw > 0 {
				s.Vulnerable = vulnerable[n*nw : (n+1)*nw : (n+1)*nw]
			}
			if synced != nil {
				s.ASSynced = synced[n*nas : (n+1)*nas : (n+1)*nas]
			}
			sm.sample(&sn.lagView, sn.now, s)
		}
	}

	gang := parallel.NewGang(0)
	var ph int
	step := func(task int) {
		switch {
		case task == 0 && ph < nPhases:
			advance(batch(ph))
		case task == 1 && ph > 0:
			fold(batch(ph-1), (ph-1)*tracePhase)
		}
	}
	for ph = 0; ph <= nPhases; ph++ {
		gang.Run(2, step)
	}
	trace.Blocks = blocks
	return trace, nil
}

// episode is one slowdown window.
type episode struct {
	start, end time.Duration
	factor     float64
}

// drawEpisodes pre-samples slowdown windows over the configured duration.
func drawEpisodes(rng *stats.Fast, cfg TraceConfig) []episode {
	var out []episode
	day := 24 * time.Hour
	rate := cfg.EpisodesPerDay / day.Seconds()
	t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	for t < cfg.Duration {
		length := time.Duration(rng.ExpFloat64() * float64(cfg.EpisodeMeanDuration))
		factor := 3 + rng.Float64()*(cfg.EpisodeSlowdownMax-3)
		out = append(out, episode{start: t, end: t + length, factor: factor})
		t += length + time.Duration(rng.ExpFloat64()/rate*float64(time.Second))
	}
	return out
}

// episodeMultiplier returns the active slowdown factor at time t (1 when no
// episode is active).
func episodeMultiplier(eps []episode, t time.Duration) float64 {
	for _, e := range eps {
		if t >= e.start && t < e.end {
			return e.factor
		}
		if e.start > t {
			break
		}
	}
	return 1
}

// MaxVulnerableParallel scans the trace for each (window, threshold) pair and
// returns the maximum simultaneous vulnerable-node count and the fraction
// of up nodes at the maximizing sample — Table V's optimization: "given a
// timestamp t and a timing constraint T, find the maximum number of
// vulnerable nodes whose lagging time L(t) is at least T". The per-window
// scans fan across workers (<= 0 means one per CPU); each is independent
// and read-only on the trace, so the output is identical for any worker
// count.
func (t *Trace) MaxVulnerableParallel(workers int) ([]VulnRow, error) {
	return parallel.Map(workers, len(t.Config.VulnerabilityWindows),
		func(wi int) (VulnRow, error) { return t.scanWindow(wi), nil })
}

// scanWindow runs the Table V optimization for one timing constraint.
func (t *Trace) scanWindow(wi int) VulnRow {
	row := VulnRow{Window: t.Config.VulnerabilityWindows[wi]}
	for _, s := range t.Samples {
		for ti := range lagThresholds {
			n := s.Vulnerable[wi][ti]
			if n > row.Max[ti] {
				row.Max[ti] = n
				if s.UpNodes > 0 {
					row.Frac[ti] = float64(n) / float64(s.UpNodes)
				}
			}
		}
	}
	return row
}

// VulnRow is one Table V row: for a timing constraint, the maximum count
// (and fraction of up nodes) of nodes at least 1, 2, and 5 blocks behind
// that stay behind for at least that long.
type VulnRow struct {
	Window time.Duration
	Max    [3]int
	Frac   [3]float64
}

// SyncedSeries extracts the Figure 8(a) series: per sample, the synced,
// 1-behind, and 2-4-behind counts.
func (t *Trace) SyncedSeries() (synced, behind1, behind2to4 []int) {
	for _, s := range t.Samples {
		synced = append(synced, s.Buckets[0])
		behind1 = append(behind1, s.Buckets[1])
		behind2to4 = append(behind2to4, s.Buckets[2])
	}
	return synced, behind1, behind2to4
}

// TopSyncedASes aggregates per-AS synced-node counts across the whole trace
// (requires TrackSyncedByAS) and returns the top n — Table VII. Counts are
// the per-sample average number of synced nodes the AS hosted.
func (t *Trace) TopSyncedASes(n int) ([]SyncedASRow, error) {
	if len(t.Samples) == 0 {
		return nil, errors.New("dataset: empty trace")
	}
	if t.Samples[0].ASSynced == nil {
		return nil, errors.New("dataset: trace did not track per-AS sync (set TrackSyncedByAS)")
	}
	totals := make([]int, len(t.ASNs))
	var allSynced int
	for _, s := range t.Samples {
		for k, c := range s.ASSynced {
			totals[k] += int(c)
			allSynced += int(c)
		}
	}
	var rows []SyncedASRow
	for k, c := range totals {
		if c == 0 {
			continue
		}
		rows = append(rows, SyncedASRow{
			ASN:      t.ASNs[k],
			Nodes:    c / len(t.Samples),
			Fraction: float64(c) / float64(allSynced),
		})
	}
	sortSyncedRows(rows)
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n], nil
}

// ASSlot returns the slot of asn in the trace's per-AS rows, or -1 when
// the AS hosts no up node or the trace did not track per-AS sync.
func (t *Trace) ASSlot(asn topology.ASN) int {
	for k, a := range t.ASNs {
		if a == asn {
			return k
		}
	}
	return -1
}

// sortSyncedRows orders by synced count descending with ASN as tie-break,
// so the order does not depend on slot order.
func sortSyncedRows(rows []SyncedASRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].ASN < rows[j].ASN
	})
}
