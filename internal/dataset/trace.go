package dataset

import (
	"errors"
	"fmt"
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
	// sample records vulnerable-node counts (Table V). Defaults to the
	// paper's set {5,10,15,20,25,30,40,70,200} minutes.
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
	if len(c.VulnerabilityWindows) == 0 {
		c.VulnerabilityWindows = DefaultVulnerabilityWindows()
	}
	return c
}

// DefaultVulnerabilityWindows returns Table V's timing constraints.
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
	// VulnerabilityWindows[i] more time (the paper's L(t) >= T).
	Vulnerable [][3]int
	// SyncedByAS maps AS -> synced node count (only when TrackSyncedByAS).
	SyncedByAS map[topology.ASN]int
	// EpisodeActive records whether a slowdown episode covered this sample.
	EpisodeActive bool
}

// Trace is the result of a lag-process run.
type Trace struct {
	Config  TraceConfig
	Samples []Sample
	// Blocks is the number of blocks published during the trace.
	Blocks int
}

// nodeState is the per-node dynamic state of the process.
type nodeState struct {
	// syncedTo is the height this node has fully verified.
	syncedTo int
	// catchupAt is when the node will jump to the current tip; zero when
	// the node is synced (no catch-up pending).
	catchupAt time.Duration
	pending   bool
}

// RunTrace simulates the lag process over the population.
func (p *Population) RunTrace(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 || cfg.SampleEvery <= 0 {
		return nil, errors.New("dataset: trace needs positive duration and sample interval")
	}
	if cfg.SampleEvery > cfg.Duration {
		return nil, fmt.Errorf("dataset: sample interval %v exceeds duration %v", cfg.SampleEvery, cfg.Duration)
	}
	rng := stats.NewRand(cfg.Seed)

	states := make([]nodeState, len(p.Nodes))
	tip := 0

	// Pre-draw episode schedule for the whole trace.
	episodes := drawEpisodes(rng, cfg)

	trace := &Trace{Config: cfg}

	// Event loop over two interleaved clocks: Poisson block arrivals and
	// the regular sampling grid.
	nextBlock := time.Duration(stats.Exponential(rng, 1/BlockInterval.Seconds()) * float64(time.Second))
	nextSample := cfg.SampleEvery

	for nextSample <= cfg.Duration {
		if nextBlock <= nextSample {
			now := nextBlock
			tip++
			trace.Blocks++
			slow := episodeMultiplier(episodes, now)
			for i := range states {
				st := &states[i]
				if !p.Nodes[i].Up {
					continue
				}
				// Fire a due catch-up first.
				if st.pending && st.catchupAt <= now {
					st.syncedTo = tip - 1
					st.pending = false
				}
				if !st.pending {
					// Node was synced; it now needs to fetch the new block.
					delay := stats.Exponential(rng, 1/p.Nodes[i].MeanCatchup.Seconds())
					delay *= slow
					st.catchupAt = now + time.Duration(delay*float64(time.Second))
					st.pending = true
				}
				// Nodes mid-catch-up fall further behind; their catchupAt
				// stands (they will sync to the tip as of that moment).
			}
			nextBlock = now + time.Duration(stats.Exponential(rng, 1/BlockInterval.Seconds())*float64(time.Second))
			continue
		}

		now := nextSample
		s := Sample{T: now, EpisodeActive: episodeMultiplier(episodes, now) > 1}
		s.Vulnerable = make([][3]int, len(cfg.VulnerabilityWindows))
		if cfg.TrackSyncedByAS {
			s.SyncedByAS = map[topology.ASN]int{}
		}
		for i := range states {
			if !p.Nodes[i].Up {
				continue
			}
			st := &states[i]
			if st.pending && st.catchupAt <= now {
				st.syncedTo = tip
				st.pending = false
			}
			s.UpNodes++
			behind := tip - st.syncedTo
			bucketAdd(&s.Buckets, behind)
			if behind == 0 && cfg.TrackSyncedByAS {
				s.SyncedByAS[p.Nodes[i].ASN]++
			}
			if behind > 0 && st.pending {
				remaining := st.catchupAt - now
				for wi, w := range cfg.VulnerabilityWindows {
					if remaining < w {
						break // windows are ascending
					}
					for ti, th := range lagThresholds {
						if behind >= th {
							s.Vulnerable[wi][ti]++
						}
					}
				}
			}
		}
		trace.Samples = append(trace.Samples, s)
		nextSample += cfg.SampleEvery
	}
	return trace, nil
}

func bucketAdd(b *[5]int, behind int) {
	switch {
	case behind <= 0:
		b[0]++
	case behind == 1:
		b[1]++
	case behind <= 4:
		b[2]++
	case behind <= 10:
		b[3]++
	default:
		b[4]++
	}
}

// episode is one slowdown window.
type episode struct {
	start, end time.Duration
	factor     float64
}

// drawEpisodes pre-samples slowdown windows over the configured duration.
func drawEpisodes(rng interface {
	Float64() float64
	ExpFloat64() float64
}, cfg TraceConfig) []episode {
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
	if t.Samples[0].SyncedByAS == nil {
		return nil, errors.New("dataset: trace did not track per-AS sync (set TrackSyncedByAS)")
	}
	totals := map[topology.ASN]int{}
	var allSynced int
	for _, s := range t.Samples {
		for asn, c := range s.SyncedByAS {
			totals[asn] += c
			allSynced += c
		}
	}
	rows := make([]SyncedASRow, 0, len(totals))
	for asn, c := range totals {
		rows = append(rows, SyncedASRow{
			ASN:      asn,
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

// sortSyncedRows orders by synced count descending with ASN as tie-break,
// so results are deterministic despite map iteration order.
func sortSyncedRows(rows []SyncedASRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].ASN < rows[j].ASN
	})
}
