package core

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/topology"
	"repro/internal/vulndb"
)

// renderTable is the shared tabwriter helper: header row then data rows.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	// Explicit discard: tabwriter.Flush only fails when the underlying
	// writer fails, and strings.Builder never does.
	_ = tw.Flush()
	return b.String()
}

// TableIResult reproduces Table I: node characteristics per address family.
type TableIResult struct {
	Rows []measure.TableIRow
}

// TableI recomputes node characteristics over the population.
func (s *Study) TableI() *TableIResult {
	return &TableIResult{Rows: measure.CharacterizeFamilies(s.Pop)}
}

// Render formats the result like the paper's Table I.
func (r *TableIResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Family.String(),
			fmt.Sprintf("%d", row.Count),
			fmt.Sprintf("%.2f", row.LinkSpeed.Mean),
			fmt.Sprintf("%.2f", row.LinkSpeed.Std),
			fmt.Sprintf("%.2f", row.LatencyIndex.Mean),
			fmt.Sprintf("%.2f", row.LatencyIndex.Std),
			fmt.Sprintf("%.2f", row.UptimeIndex.Mean),
			fmt.Sprintf("%.2f", row.UptimeIndex.Std),
		})
	}
	return renderTable(
		"Table I: node characteristics by address family",
		[]string{"Type", "Count", "Speed μ", "Speed σ", "Latency μ", "Latency σ", "Uptime μ", "Uptime σ"},
		rows)
}

// TableIIResult reproduces Table II: top-10 ASes and organizations.
type TableIIResult struct {
	ASes []measure.HostRow
	Orgs []measure.HostRow
}

// TableII recomputes the top-10 hosting table.
func (s *Study) TableII() *TableIIResult {
	return &TableIIResult{
		ASes: measure.TopASes(s.Pop, 10),
		Orgs: measure.TopOrgs(s.Pop, 10),
	}
}

// Render formats both columns of Table II.
func (r *TableIIResult) Render() string {
	rows := make([][]string, 0, len(r.ASes))
	for i := range r.ASes {
		as, org := r.ASes[i], r.Orgs[i]
		rows = append(rows, []string{
			as.Label, fmt.Sprintf("%d", as.Nodes), fmt.Sprintf("%.2f%%", as.Fraction*100),
			org.Label, fmt.Sprintf("%d", org.Nodes), fmt.Sprintf("%.2f%%", org.Fraction*100),
		})
	}
	return renderTable(
		"Table II: top 10 ASes and organizations",
		[]string{"AS", "Nodes", "%", "Organization", "Nodes", "%"},
		rows)
}

// TableIIIResult reproduces Table III: centralization change 2017 -> 2018.
type TableIIIResult struct {
	Rows []measure.ChangeRow
}

// TableIII recomputes the centralization change against the 2017 baseline.
func (s *Study) TableIII() (*TableIIIResult, error) {
	rows, err := measure.CentralizationChange(s.Pop)
	if err != nil {
		return nil, err
	}
	return &TableIIIResult{Rows: rows}, nil
}

// Render formats Table III.
func (r *TableIIIResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("ASes with %.0f%% nodes", row.Fraction*100),
			fmt.Sprintf("%d", row.ASes2017),
			fmt.Sprintf("%d", row.ASes2018),
			fmt.Sprintf("%.0f%%", row.ChangePct),
		})
	}
	return renderTable(
		"Table III: distribution of Bitcoin full nodes over time",
		[]string{"", "2017", "2018", "Change %"},
		rows)
}

// TableIVResult reproduces Table IV: top mining pools and their stratum
// placement, plus the derived isolation shares.
type TableIVResult struct {
	Pools []mining.Pool
	// ThreeASShare is the hash share behind {AS37963, AS45102, AS58563}.
	ThreeASShare float64
	// AliBabaShare is the share behind the AliBaba organization.
	AliBabaShare float64
}

// TableIV recomputes the mining-pool table and its headline shares.
func (s *Study) TableIV() (*TableIVResult, error) {
	pools := dataset.TableIV()
	set, err := mining.NewPoolSet(pools)
	if err != nil {
		return nil, err
	}
	return &TableIVResult{
		Pools: pools,
		ThreeASShare: set.ShareBehindASes(map[topology.ASN]bool{
			37963: true, 45102: true, 58563: true,
		}),
		AliBabaShare: set.ShareBehindOrg("AliBaba"),
	}, nil
}

// Render formats Table IV.
func (r *TableIVResult) Render() string {
	rows := make([][]string, 0, len(r.Pools))
	for _, p := range r.Pools {
		ases := make([]string, 0, len(p.StratumASes))
		for _, a := range p.StratumASes {
			ases = append(ases, fmt.Sprintf("AS%d", a))
		}
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.1f%%", p.HashShare*100),
			strings.Join(ases, " "),
			p.StratumOrg,
		})
	}
	out := renderTable(
		"Table IV: top 5 mining pools per hash rate, ASes, and organizations",
		[]string{"Pool", "Hash %", "ASes", "Org"},
		rows)
	return out + fmt.Sprintf("3 ASes carry %.1f%% of hash rate; AliBaba alone %.1f%%\n",
		r.ThreeASShare*100, r.AliBabaShare*100)
}

// TableVResult reproduces Table V: the maximum number of vulnerable nodes
// per timing constraint.
type TableVResult struct {
	Rows []dataset.VulnRow
}

// TableV runs the lag trace with Table V's nine timing windows and the
// vulnerability optimization, scanning the windows across the study's
// workers.
func (s *Study) TableV() (*TableVResult, error) {
	tr, err := s.runTrace(5, dataset.TraceConfig{
		Duration:             time.Duration(s.Opts.TableVTraceDays) * 24 * time.Hour,
		SampleEvery:          10 * time.Minute,
		VulnerabilityWindows: dataset.DefaultVulnerabilityWindows(),
	})
	if err != nil {
		return nil, err
	}
	rows, err := tr.MaxVulnerableParallel(s.Opts.Workers)
	if err != nil {
		return nil, err
	}
	return &TableVResult{Rows: rows}, nil
}

// Render formats Table V.
func (r *TableVResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.Window.Minutes()),
			fmt.Sprintf("%d (%.2f%%)", row.Max[0], row.Frac[0]*100),
			fmt.Sprintf("%d (%.2f%%)", row.Max[1], row.Frac[1]*100),
			fmt.Sprintf("%d (%.2f%%)", row.Max[2], row.Frac[2]*100),
		})
	}
	return renderTable(
		"Table V: maximum number of vulnerable nodes",
		[]string{"T (min)", ">=1 block", ">=2 blocks", ">=5 blocks"},
		rows)
}

// TableVIResult reproduces Table VI: minimum timing constraint to isolate m
// nodes at success probability 0.8.
type TableVIResult struct {
	Table *attack.TimingTable
}

// TableVI evaluates the theoretical bound over the paper's grid.
func (s *Study) TableVI() (*TableVIResult, error) {
	lambdas, ms := attack.PaperTimingGrid()
	table, err := attack.ComputeTimingTable(lambdas, ms, 0.8)
	if err != nil {
		return nil, err
	}
	return &TableVIResult{Table: table}, nil
}

// Render formats Table VI.
func (r *TableVIResult) Render() string {
	header := []string{"λ \\ m"}
	for _, m := range r.Table.Ms {
		header = append(header, fmt.Sprintf("%d", m))
	}
	rows := make([][]string, 0, len(r.Table.Lambdas))
	for i, l := range r.Table.Lambdas {
		row := []string{fmt.Sprintf("%.1f", l)}
		for j := range r.Table.Ms {
			row = append(row, fmt.Sprintf("%d", r.Table.Seconds[i][j]))
		}
		rows = append(rows, row)
	}
	return renderTable(
		fmt.Sprintf("Table VI: minimum timing constraint T (seconds) to isolate m nodes (p >= %.1f)", r.Table.TargetP),
		header, rows)
}

// TableVIIResult reproduces Table VII: top ASes hosting synced nodes over a
// day.
type TableVIIResult struct {
	Rows []dataset.SyncedASRow
	// TopFraction is the share of synced hosting covered by the listed
	// ASes (the paper observes ~28% for the top 5).
	TopFraction float64
}

// TableVII runs a one-day tracked trace and aggregates synced hosting.
func (s *Study) TableVII() (*TableVIIResult, error) {
	tr, err := s.runTrace(7, dataset.TraceConfig{Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, TrackSyncedByAS: true})
	if err != nil {
		return nil, err
	}
	rows, err := tr.TopSyncedASes(5)
	if err != nil {
		return nil, err
	}
	res := &TableVIIResult{Rows: rows}
	for _, r := range rows {
		res.TopFraction += r.Fraction
	}
	return res, nil
}

// Render formats Table VII.
func (r *TableVIIResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		label := fmt.Sprintf("AS%d", row.ASN)
		if row.ASN == topology.TorASN {
			label = "TOR"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.2f%%", row.Fraction*100),
		})
	}
	out := renderTable(
		"Table VII: top 5 ASes hosting synchronized nodes (24h mean)",
		[]string{"AS", "Synced nodes", "Share"},
		rows)
	return out + fmt.Sprintf("top-5 share of synced hosting: %.1f%%\n", r.TopFraction*100)
}

// TableVIIIResult reproduces Table VIII: top software versions, with the
// CVE exposure join of §V-D.
type TableVIIIResult struct {
	Rows []measure.VersionShareRow
	// Variants is the number of distinct clients observed (paper: 288).
	Variants int
	// VulnerableShare is the fraction of nodes exposed to at least one
	// known CVE.
	VulnerableShare float64
}

// TableVIII recomputes the version census.
func (s *Study) TableVIII() *TableVIIIResult {
	return &TableVIIIResult{
		Rows:            measure.TopVersions(s.Pop, 5),
		Variants:        len(s.Pop.VersionCounts()),
		VulnerableShare: attack.VulnerableShare(s.Pop, vulndb.New(), 0),
	}
}

// Render formats Table VIII.
func (r *TableVIIIResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for i, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			row.Version,
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.2f%%", row.Share*100),
		})
	}
	out := renderTable(
		"Table VIII: top 5 software versions used by full nodes",
		[]string{"Index", "Version", "Nodes", "Users %"},
		rows)
	return out + fmt.Sprintf("distinct variants: %d; nodes exposed to known CVEs: %.1f%%\n",
		r.Variants, r.VulnerableShare*100)
}
