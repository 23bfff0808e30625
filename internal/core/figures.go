package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/gridsim"
	"repro/internal/measure"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Figure3Result reproduces Figure 3: CDFs of full nodes over ASes and
// organizations, with the headline rank queries.
type Figure3Result struct {
	ASCdf  stats.CDF
	OrgCdf stats.CDF
	// Ranks records, for each fraction, how many ASes/orgs cover it.
	ASFor30, ASFor50, ASFor100    int
	OrgFor30, OrgFor50, OrgFor100 int
}

// Figure3 computes both CDFs.
func (s *Study) Figure3() (*Figure3Result, error) {
	r := &Figure3Result{
		ASCdf:  measure.ASCdf(s.Pop),
		OrgCdf: measure.OrgCdf(s.Pop),
	}
	var err error
	if r.ASFor30, err = r.ASCdf.RankFor(0.30); err != nil {
		return nil, err
	}
	if r.ASFor50, err = r.ASCdf.RankFor(0.50); err != nil {
		return nil, err
	}
	if r.ASFor100, err = r.ASCdf.RankFor(1.0); err != nil {
		return nil, err
	}
	if r.OrgFor30, err = r.OrgCdf.RankFor(0.30); err != nil {
		return nil, err
	}
	if r.OrgFor50, err = r.OrgCdf.RankFor(0.50); err != nil {
		return nil, err
	}
	if r.OrgFor100, err = r.OrgCdf.RankFor(1.0); err != nil {
		return nil, err
	}
	return r, nil
}

// Render prints the CDF at decade ranks plus the headline numbers.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: CDF of Bitcoin full nodes in ASes and organizations\n")
	b.WriteString("rank\tASes F(k)\tOrgs F(k)\n")
	for _, k := range []float64{1, 2, 4, 8, 16, 24, 50, 100, 200, 400, 800, 1600} {
		fmt.Fprintf(&b, "%.0f\t%.3f\t%.3f\n", k, r.ASCdf.At(k), r.OrgCdf.At(k))
	}
	fmt.Fprintf(&b, "30%% of nodes: %d ASes / %d orgs (paper: 8 / 8)\n", r.ASFor30, r.OrgFor30)
	fmt.Fprintf(&b, "50%% of nodes: %d ASes / %d orgs (paper: 24 / 13-21)\n", r.ASFor50, r.OrgFor50)
	fmt.Fprintf(&b, "100%% of nodes: %d ASes / %d orgs (paper: 1660 ASes)\n", r.ASFor100, r.OrgFor100)
	return b.String()
}

// Figure4Result reproduces Figure 4: per-AS fraction of nodes hijacked vs
// number of BGP prefix hijacks, for the top five ASes.
type Figure4Result struct {
	// Curves maps each AS to its hijack curve.
	Curves map[topology.ASN][]measure.HijackPoint
	// PrefixTotals is each AS's announced-prefix count (the figure's key).
	PrefixTotals map[topology.ASN]int
	// For95 is the number of hijacks reaching 95% per AS.
	For95 map[topology.ASN]int
}

// Figure4ASes are the five ASes the paper plots.
func Figure4ASes() []topology.ASN {
	return []topology.ASN{24940, 16276, 37963, 16509, 14061}
}

// Figure4 computes the hijack curves. The five per-AS enumerations are
// independent read-only scans of the population, so they fan out across the
// study's workers; the collected maps are identical for any worker count.
func (s *Study) Figure4() (*Figure4Result, error) {
	type asCurves struct {
		curve    []measure.HijackPoint
		prefixes int
		for95    int
	}
	ases := Figure4ASes()
	results, err := parallel.Sweep(s.Opts.Workers, ases,
		func(_ int, asn topology.ASN) (asCurves, error) {
			curve, err := measure.HijackCurve(s.Pop, asn)
			if err != nil {
				return asCurves{}, err
			}
			row, ok := s.Pop.ASRow(asn)
			if !ok {
				return asCurves{}, fmt.Errorf("core: AS%d missing", asn)
			}
			k, err := measure.PrefixesToIsolate(s.Pop, asn, 0.95)
			if err != nil {
				return asCurves{}, err
			}
			return asCurves{curve: curve, prefixes: row.Prefixes, for95: k}, nil
		})
	if err != nil {
		return nil, err
	}
	r := &Figure4Result{
		Curves:       map[topology.ASN][]measure.HijackPoint{},
		PrefixTotals: map[topology.ASN]int{},
		For95:        map[topology.ASN]int{},
	}
	for i, asn := range ases {
		r.Curves[asn] = results[i].curve
		r.PrefixTotals[asn] = results[i].prefixes
		r.For95[asn] = results[i].for95
	}
	return r, nil
}

// Render prints each curve at sample points.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: fraction of nodes hijacked vs number of BGP hijacks\n")
	for _, asn := range Figure4ASes() {
		curve := r.Curves[asn]
		fmt.Fprintf(&b, "AS%d (%d prefixes announced): ", asn, r.PrefixTotals[asn])
		for _, k := range []int{1, 5, 10, 15, 20, 40, 80, 140} {
			if k <= len(curve) {
				fmt.Fprintf(&b, "k=%d:%.2f ", k, curve[k-1].Fraction)
			}
		}
		fmt.Fprintf(&b, "| 95%% at %d hijacks\n", r.For95[asn])
	}
	return b.String()
}

// Figure6Variant selects which panel of Figure 6 to regenerate.
type Figure6Variant int

// Figure 6 panels.
const (
	Figure6Invalid Figure6Variant = iota
	// Figure6a is the multi-day general trend, 10-minute sampling.
	Figure6a
	// Figure6b is the one-day snapshot, 10-minute sampling.
	Figure6b
	// Figure6c is consensus pruning between blocks, 1-minute sampling.
	Figure6c
)

// Figure6Result is the stacked lag series of one panel.
type Figure6Result struct {
	Variant Figure6Variant
	Trace   *dataset.Trace
}

// Figure6 regenerates the requested panel.
func (s *Study) Figure6(v Figure6Variant) (*Figure6Result, error) {
	switch v {
	case Figure6a:
		tr, err := s.runTrace(61, dataset.TraceConfig{Duration: time.Duration(s.Opts.Figure6aDays) * 24 * time.Hour, SampleEvery: 10 * time.Minute})
		if err != nil {
			return nil, err
		}
		return &Figure6Result{Variant: v, Trace: tr}, nil
	case Figure6b:
		tr, err := s.runTrace(62, dataset.TraceConfig{Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute})
		if err != nil {
			return nil, err
		}
		return &Figure6Result{Variant: v, Trace: tr}, nil
	case Figure6c:
		tr, err := s.runTrace(63, dataset.TraceConfig{Duration: 3 * time.Hour, SampleEvery: time.Minute})
		if err != nil {
			return nil, err
		}
		return &Figure6Result{Variant: v, Trace: tr}, nil
	default:
		return nil, fmt.Errorf("core: invalid Figure 6 variant %d", int(v))
	}
}

// Render prints the stacked series (cumulative counts as in the paper).
func (r *Figure6Result) Render() string {
	var b strings.Builder
	name := map[Figure6Variant]string{
		Figure6a: "6(a) general trend",
		Figure6b: "6(b) one-day snapshot",
		Figure6c: "6(c) consensus between blocks",
	}[r.Variant]
	fmt.Fprintf(&b, "Figure %s — stacked node counts by lag\n", name)
	b.WriteString("sample\tsynced\t+1behind\t+2-4\t+5-10\t+>10\ttotal\n")
	step := len(r.Trace.Samples)/24 + 1
	for i := 0; i < len(r.Trace.Samples); i += step {
		s := r.Trace.Samples[i]
		c0 := s.Buckets[0]
		c1 := c0 + s.Buckets[1]
		c2 := c1 + s.Buckets[2]
		c3 := c2 + s.Buckets[3]
		c4 := c3 + s.Buckets[4]
		fmt.Fprintf(&b, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n", i, c0, c1, c2, c3, c4, s.UpNodes)
	}
	return b.String()
}

// Figure7Result reproduces Figure 7: the grid simulation of the temporal
// attack, with snapshots at the paper's time steps.
type Figure7Result struct {
	// Steps are the panel time steps: one past the third, fourth, and fifth
	// block events — 151, 201, 251 on the paper's 25×25 grid.
	Steps []int
	// Snapshots at the panel steps.
	Snapshots []gridsim.Snapshot
	// FinalMap is the ASCII fork map at the last panel step.
	FinalMap string
	// ForksEmerged and peak counterfeit share summarize the run.
	ForksEmerged       int
	PeakCounterfeitPct float64
}

// Figure7 runs the grid simulation with the paper's parameters (30%
// attacker at cell [7,7], 10% failures). The paper's panels show "a sample
// of results obtained from simulation" in which the attack fork is already
// live at time step 151; to present the same phenomenon we scan seeds
// (starting from the study seed) for such a run. The panels and the
// disruption window scale with the grid's block interval, so a larger grid
// shows the same arc at proportionally later steps.
func (s *Study) Figure7() (*Figure7Result, error) {
	spb := gridsim.NewConfig(s.seed, gridsim.WithSize(s.Opts.GridSize), gridsim.WithSpanRatio(2.0)).StepsPerBlock()
	steps := []int{3*spb + 1, 4*spb + 1, 5*spb + 1}
	var g *gridsim.Grid
	for offset := int64(0); offset < 32 && g == nil; offset++ {
		candidate, err := gridsim.New(s.seed+offset,
			gridsim.WithSize(s.Opts.GridSize),
			gridsim.WithSpanRatio(2.0),
			gridsim.WithFailureRate(0.10),
			gridsim.WithAttacker(0.30, gridAttackerCell, gridAttackerCell),
			// The attacker holds a radius-5 region open with targeted
			// communication disruption until the fourth block event, then
			// the honest chain floods back — the arc of the paper's three
			// panels.
			gridsim.WithBoundary(5, 0, 4*spb),
			gridsim.WithObserver(s.obs),
			gridsim.WithFaults(s.Opts.Faults),
			gridsim.WithStepBudget(s.Opts.StepBudget),
		)
		if err != nil {
			return nil, err
		}
		candidate.Advance(steps[0])
		if err := candidate.BudgetErr(); err != nil {
			return nil, fmt.Errorf("core: figure7: %w", err)
		}
		if candidate.CounterfeitCells() > 1 {
			g = candidate
		}
	}
	if g == nil {
		return nil, fmt.Errorf("core: no seed in range produced a live attack fork by step %d", steps[0])
	}
	res := &Figure7Result{Steps: steps}
	cells := s.Opts.GridSize * s.Opts.GridSize
	prev := steps[0]
	peak := g.CounterfeitCells()
	res.Snapshots = append(res.Snapshots, g.Snapshot())
	for _, target := range steps[1:] {
		g.Advance(target - prev)
		if err := g.BudgetErr(); err != nil {
			return nil, fmt.Errorf("core: figure7: %w", err)
		}
		prev = target
		res.Snapshots = append(res.Snapshots, g.Snapshot())
		if n := g.CounterfeitCells(); n > peak {
			peak = n
		}
	}
	res.FinalMap = g.Render()
	res.ForksEmerged = g.ForksEmerged()
	res.PeakCounterfeitPct = float64(peak) / float64(cells) * 100
	return res, nil
}

// HealStudy runs the partition-heal fault sweep (DESIGN.md §10): the
// Figure 7 attack arc — 30% attacker holding a radius-5 region open, then
// healing at the horizon midpoint — re-run as a Monte-Carlo ensemble under
// each fault preset (stable, churny, flaky, hijack-recovery). The
// obs-backed columns come from per-trial metrics registries merged in
// trial order, so the table is byte-identical at any worker count.
func (s *Study) HealStudy() (*gridsim.HealStudyResult, error) {
	return gridsim.RunHealStudy(gridsim.HealConfig{
		Grid: gridsim.NewConfig(s.seed,
			gridsim.WithSize(s.Opts.GridSize),
			gridsim.WithSpanRatio(2.0),
			gridsim.WithFailureRate(0.10),
			gridsim.WithAttacker(0.30, gridAttackerCell, gridAttackerCell),
			gridsim.WithBoundary(5, 0, 0),
			gridsim.WithStepBudget(s.Opts.StepBudget),
		),
		Workers: s.Opts.Workers,
	})
}

// Render prints fork populations per panel plus the final fork map.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: grid simulation of the temporal attack (30% attacker)\n")
	for i, snap := range r.Snapshots {
		fmt.Fprintf(&b, "time step %d: max height %d, forks: ", r.Steps[i], snap.MaxHeight)
		dom, n := snap.DominantFork()
		fmt.Fprintf(&b, "dominant %v (%d cells), %d distinct; lag stack %v\n",
			dom, n, len(snap.ForkCounts), snap.Lag)
	}
	fmt.Fprintf(&b, "forks emerged: %d; peak counterfeit share: %.1f%%\n", r.ForksEmerged, r.PeakCounterfeitPct)
	b.WriteString("final fork map:\n")
	b.WriteString(r.FinalMap)
	return b.String()
}

// Figure8Result reproduces Figure 8: the one-day synced/behind series and
// the per-AS synced series for the top five ASes.
type Figure8Result struct {
	Trace *dataset.Trace
	// Synced, Behind1, Behind2to4 are the 8(a) series.
	Synced, Behind1, Behind2to4 []int
	// TopASes are the five ASes whose series 8(b,c) plot.
	TopASes []dataset.SyncedASRow
	// ASSeries maps each of them to its per-sample synced count.
	ASSeries map[topology.ASN][]int
}

// Figure8 runs the tracked one-day trace and extracts all three panels.
func (s *Study) Figure8() (*Figure8Result, error) {
	tr, err := s.runTrace(8, dataset.TraceConfig{Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, TrackSyncedByAS: true})
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{Trace: tr}
	res.Synced, res.Behind1, res.Behind2to4 = tr.SyncedSeries()
	top, err := tr.TopSyncedASes(5)
	if err != nil {
		return nil, err
	}
	res.TopASes = top
	ases := make([]topology.ASN, 0, len(top))
	for _, row := range top {
		ases = append(ases, row.ASN)
	}
	res.ASSeries, err = measure.SyncedASSeries(tr, ases)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the 8(a) series at coarse resolution and the AS summary.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8(a): one-day synced / 1-behind / 2-4-behind series\n")
	b.WriteString("sample\tsynced\t1behind\t2-4behind\n")
	step := len(r.Synced)/24 + 1
	for i := 0; i < len(r.Synced); i += step {
		fmt.Fprintf(&b, "%d\t%d\t%d\t%d\n", i, r.Synced[i], r.Behind1[i], r.Behind2to4[i])
	}
	b.WriteString("Figure 8(b,c): top-5 ASes by synced hosting (24h mean)\n")
	for _, row := range r.TopASes {
		series := r.ASSeries[row.ASN]
		lo, hi := series[0], series[0]
		for _, v := range series {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(&b, "AS%d: mean %d synced nodes, range [%d, %d]\n", row.ASN, row.Nodes, lo, hi)
	}
	return b.String()
}
