// Package measure implements the paper's analyses over the (synthetic)
// crawl: per-family node characterization (Table I), AS/organization top-k
// tables (Table II) and CDFs (Figure 3), year-over-year centralization
// change (Table III), per-AS BGP-prefix hijack curves (Figure 4), and the
// consensus-lag series readers behind Figures 6 and 8 and Tables V and VII.
package measure

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TableIRow is one computed row of Table I.
type TableIRow struct {
	Family       topology.AddrFamily
	Count        int
	LinkSpeed    stats.Summary
	LatencyIndex stats.Summary
	UptimeIndex  stats.Summary
}

// CharacterizeFamilies recomputes Table I from a population.
func CharacterizeFamilies(p *dataset.Population) []TableIRow {
	byFam := map[topology.AddrFamily][]dataset.NodeRecord{}
	for _, n := range p.Nodes {
		byFam[n.Family] = append(byFam[n.Family], n)
	}
	families := []topology.AddrFamily{topology.FamilyIPv4, topology.FamilyIPv6, topology.FamilyOnion}
	rows := make([]TableIRow, 0, len(families))
	for _, f := range families {
		nodes := byFam[f]
		var speed, lat, upt []float64
		for _, n := range nodes {
			speed = append(speed, n.LinkSpeedMbs)
			lat = append(lat, n.LatencyIndex)
			upt = append(upt, n.UptimeIndex)
		}
		rows = append(rows, TableIRow{
			Family:       f,
			Count:        len(nodes),
			LinkSpeed:    stats.Summarize(speed),
			LatencyIndex: stats.Summarize(lat),
			UptimeIndex:  stats.Summarize(upt),
		})
	}
	return rows
}

// HostRow is one row of the Table II style top-k listings.
type HostRow struct {
	Label    string // "AS24940" or organization name
	Nodes    int
	Fraction float64
}

// TopASes returns the n ASes hosting the most nodes, with fractions of the
// total population.
func TopASes(p *dataset.Population, n int) []HostRow {
	rows := make([]HostRow, 0, len(p.ASRows))
	for _, r := range p.ASRows {
		label := fmt.Sprintf("AS%d", r.ASN)
		if r.ASN == topology.TorASN {
			label = "TOR"
		}
		rows = append(rows, HostRow{Label: label, Nodes: r.Nodes})
	}
	return sortHostRows(rows, len(p.Nodes), n)
}

// TopOrgs returns the n organizations hosting the most nodes.
func TopOrgs(p *dataset.Population, n int) []HostRow {
	counts := p.OrgNodeCounts()
	rows := make([]HostRow, 0, len(counts))
	for org, c := range counts {
		rows = append(rows, HostRow{Label: org, Nodes: c})
	}
	return sortHostRows(rows, len(p.Nodes), n)
}

// sortHostRows establishes the total row order (nodes descending, label as
// the tiebreak — so equal counts cannot leak map iteration order), then
// truncates to n and fills fractions.
func sortHostRows(rows []HostRow, total, n int) []HostRow {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].Label < rows[j].Label
	})
	if n > len(rows) {
		n = len(rows)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i].Fraction = float64(rows[i].Nodes) / float64(total)
	}
	return rows
}

// ASCdf returns the Figure 3 CDF over ASes.
func ASCdf(p *dataset.Population) stats.CDF {
	counts := make([]int, 0, len(p.ASRows))
	for _, r := range p.ASRows {
		counts = append(counts, r.Nodes)
	}
	return stats.CumulativeFromCounts(counts)
}

// OrgCdf returns the Figure 3 CDF over organizations.
func OrgCdf(p *dataset.Population) stats.CDF {
	counts := make([]int, 0)
	//lint:ignore maporder CumulativeFromCounts sorts the counts internally, so collection order cannot reach the CDF
	for _, c := range p.OrgNodeCounts() {
		counts = append(counts, c)
	}
	return stats.CumulativeFromCounts(counts)
}

// ChangeRow is one row of Table III.
type ChangeRow struct {
	Fraction  float64
	ASes2017  int
	ASes2018  int
	ChangePct float64
}

// CentralizationChange recomputes Table III: for each fraction, the 2017
// baseline count (from Apostolaki et al., embedded) against the count
// measured on this population, with the paper's change metric
// C = (N1-N2)*100/N1.
func CentralizationChange(p *dataset.Population) ([]ChangeRow, error) {
	cdf := ASCdf(p)
	out := make([]ChangeRow, 0, 2)
	for _, base := range dataset.TableIII() {
		rank, err := cdf.RankFor(base.Fraction)
		if err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		out = append(out, ChangeRow{
			Fraction:  base.Fraction,
			ASes2017:  base.ASes2017,
			ASes2018:  rank,
			ChangePct: float64(base.ASes2017-rank) * 100 / float64(base.ASes2017),
		})
	}
	return out, nil
}

// HijackPoint is one point of a Figure 4 curve: after hijacking the k most
// node-dense prefixes of the AS, the fraction of that AS's nodes captured.
type HijackPoint struct {
	Hijacks  int
	Fraction float64
}

// HijackCurve computes the Figure 4 curve for one AS: prefixes sorted by
// node population descending, cumulative captured fraction per prefix
// hijacked.
func HijackCurve(p *dataset.Population, asn topology.ASN) ([]HijackPoint, error) {
	nodes := p.NodesInAS(asn)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("measure: AS%d hosts no nodes", asn)
	}
	perPrefix := map[topology.Prefix]int{}
	for _, n := range nodes {
		perPrefix[n.Prefix]++
	}
	counts := make([]int, 0, len(perPrefix))
	for _, c := range perPrefix {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	out := make([]HijackPoint, 0, len(counts))
	cum := 0
	for i, c := range counts {
		cum += c
		out = append(out, HijackPoint{Hijacks: i + 1, Fraction: float64(cum) / float64(len(nodes))})
	}
	return out, nil
}

// PrefixesToIsolate returns the minimum number of prefix hijacks capturing
// at least frac of the AS's nodes.
func PrefixesToIsolate(p *dataset.Population, asn topology.ASN, frac float64) (int, error) {
	curve, err := HijackCurve(p, asn)
	if err != nil {
		return 0, err
	}
	for _, pt := range curve {
		if pt.Fraction >= frac-1e-12 {
			return pt.Hijacks, nil
		}
	}
	return 0, fmt.Errorf("measure: fraction %v unreachable for AS%d", frac, asn)
}

// OrderedPrefixes returns the AS's prefixes sorted by hosted-node count
// descending — the hijack priority list an attacker would use.
func OrderedPrefixes(p *dataset.Population, asn topology.ASN) ([]topology.Prefix, error) {
	nodes := p.NodesInAS(asn)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("measure: AS%d hosts no nodes", asn)
	}
	perPrefix := map[topology.Prefix]int{}
	for _, n := range nodes {
		perPrefix[n.Prefix]++
	}
	prefixes := make([]topology.Prefix, 0, len(perPrefix))
	for pfx := range perPrefix {
		prefixes = append(prefixes, pfx)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if perPrefix[prefixes[i]] != perPrefix[prefixes[j]] {
			return perPrefix[prefixes[i]] > perPrefix[prefixes[j]]
		}
		return prefixes[i].Base < prefixes[j].Base
	})
	return prefixes, nil
}

// VersionShareRow is one recomputed Table VIII row.
type VersionShareRow struct {
	Version string
	Nodes   int
	Share   float64
}

// TopVersions returns the n most-used software versions.
func TopVersions(p *dataset.Population, n int) []VersionShareRow {
	counts := p.VersionCounts()
	rows := make([]VersionShareRow, 0, len(counts))
	for v, c := range counts {
		rows = append(rows, VersionShareRow{Version: v, Nodes: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].Version < rows[j].Version
	})
	if n > len(rows) {
		n = len(rows)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i].Share = float64(rows[i].Nodes) / float64(len(p.Nodes))
	}
	return rows
}

// SyncedASSeries extracts Figure 8(b,c): per-sample synced-node counts for
// the given ASes from a trace that tracked per-AS sync.
func SyncedASSeries(tr *dataset.Trace, ases []topology.ASN) (map[topology.ASN][]int, error) {
	if len(tr.Samples) == 0 {
		return nil, fmt.Errorf("measure: empty trace")
	}
	if tr.Samples[0].ASSynced == nil {
		return nil, fmt.Errorf("measure: trace lacks per-AS sync tracking")
	}
	out := make(map[topology.ASN][]int, len(ases))
	for _, asn := range ases {
		series := make([]int, len(tr.Samples))
		if k := tr.ASSlot(asn); k >= 0 {
			for i, s := range tr.Samples {
				series[i] = int(s.ASSynced[k])
			}
		}
		out[asn] = series
	}
	return out, nil
}
