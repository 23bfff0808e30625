// Package dataset generates the synthetic stand-in for the paper's
// proprietary Bitnodes crawl (Feb 28 – Apr 2018, 80 GB). The paper's
// analyses consume only aggregate properties of that crawl — per-AS and
// per-organization node counts, per-AS BGP prefix concentration, address-
// family characteristics, software-version shares, mining-pool placement,
// and the distribution of per-node consensus lag over time. This package
// embeds every aggregate the paper publishes and generates a node
// population plus a lag-process trace whose marginals match them, so the
// analysis and attack code paths run exactly as they would over the real
// crawl.
package dataset

import (
	"time"

	"repro/internal/mining"
	"repro/internal/topology"
)

// Snapshot-level headline numbers from §IV-C (Feb 28, 2018).
const (
	// TotalNodes is the full-node population of the snapshot.
	TotalNodes = 13635
	// IPv4Nodes, IPv6Nodes, OnionNodes split the population by family.
	IPv4Nodes  = 12737
	IPv6Nodes  = 579
	OnionNodes = 319
	// UpNodes were reachable at the snapshot (83.47%).
	UpNodes = 11382
	// SyncedNodes had the most recent block (45.14%).
	SyncedNodes = 6155
	// TotalWorldASes is the number of ASes on the Internet the paper cites
	// (84,903); BitcoinASes of them host at least one full node.
	TotalWorldASes = 84903
	// BitcoinASes host 100% of the full nodes (1.95% of all ASes).
	BitcoinASes = 1660
)

// FamilyMoments holds Table I's per-family link speed and index moments.
type FamilyMoments struct {
	Family       topology.AddrFamily
	Count        int
	LinkSpeedMu  float64 // Mbps
	LinkSpeedSig float64
	LatencyMu    float64
	LatencySig   float64
	UptimeMu     float64
	UptimeSig    float64
}

// TableI reproduces the paper's Table I.
func TableI() []FamilyMoments {
	return []FamilyMoments{
		{topology.FamilyIPv4, IPv4Nodes, 25.04, 258.80, 0.70, 0.45, 0.68, 0.44},
		{topology.FamilyIPv6, IPv6Nodes, 23.06, 245.36, 0.86, 0.35, 0.67, 0.42},
		{topology.FamilyOnion, OnionNodes, 432.67, 1046.5, 0.24, 0.25, 0.76, 0.37},
	}
}

// ASRow is one row of Table II's AS-side columns, extended with the BGP
// prefix count Figure 4 reports and a concentration exponent calibrated so
// the per-AS hijack curves of Figure 4 reproduce (nodes per prefix follow a
// Zipf law with this exponent; larger means more concentrated).
type ASRow struct {
	ASN      topology.ASN
	Name     string
	Org      string
	Nodes    int
	Prefixes int
	// Concentration is the Zipf exponent for node-to-prefix assignment.
	// AS16509 (Amazon EC2) spreads nodes near-uniformly over ~3k prefixes
	// (the paper: >140 hijacks for 95%), while hosting providers like
	// Hetzner concentrate 95% of nodes into ~15 prefixes.
	Concentration float64
	Country       string
}

// TableII returns the top-10 AS rows of Table II (TOR appears as the
// pseudo-AS), augmented with Figure 4's prefix counts where the paper
// reports them and estimates of the same magnitude elsewhere.
func TableII() []ASRow {
	return []ASRow{
		{24940, "HETZNER-AS", "Hetzner Online GmbH", 1030, 51, 2.2, "DE"},
		{16276, "OVH", "OVH SAS", 697, 104, 1.7, "FR"},
		{37963, "CNNIC-ALIBABA-CN-NET-AP", "Hangzhou Alibaba", 640, 454, 1.3, "CN"},
		{16509, "AMAZON-02", "Amazon.com, Inc", 609, 2969, 0.15, "US"},
		{14061, "DIGITALOCEAN-ASN", "DigitalOcean, LLC", 460, 1430, 1.1, "US"},
		{7922, "COMCAST-7922", "Comcast Communication", 414, 980, 0.9, "US"},
		{4134, "CHINANET-BACKBONE", "No.31, Jin-rong Street", 394, 2450, 0.6, "CN"},
		{topology.TorASN, "TOR", "TOR", 319, 0, 0, ""},
		{51167, "CONTABO", "Contabo GmbH", 288, 31, 2.0, "DE"},
		{45102, "CNNIC-ALIBABA-US-NET-AP", "Alibaba (China)", 279, 210, 1.4, "CN"},
	}
}

// SecondaryASes are additional ASes owned by multi-AS organizations, sized
// so that Table II's organization column reproduces: Amazon.com 756 nodes
// (AS16509 609 + 147 elsewhere), OVH SAS 700 (697 + 3), DigitalOcean 503
// (460 + 43). The paper highlights exactly this AS/organization asymmetry
// ("Amazon.com owns another AS besides AS16276 [sic] that also routes
// traffic").
func SecondaryASes() []ASRow {
	return []ASRow{
		{14618, "AMAZON-AES", "Amazon.com, Inc", 147, 310, 0.5, "US"},
		{35540, "OVH-2", "OVH SAS", 3, 4, 1.0, "FR"},
		{393406, "DIGITALOCEAN-2", "DigitalOcean, LLC", 43, 120, 1.2, "US"},
		{58563, "CHINANET-HUBEI", "Chinanet Hubei", 95, 260, 0.8, "CN"},
	}
}

// OrgRow is one row of Table II's organization-side columns.
type OrgRow struct {
	Name  string
	Nodes int
}

// TableIIOrgs returns the organization column of Table II.
func TableIIOrgs() []OrgRow {
	return []OrgRow{
		{"Hetzner Online GmbH", 1030},
		{"Amazon.com, Inc", 756},
		{"OVH SAS", 700},
		{"Hangzhou Alibaba", 640},
		{"DigitalOcean, LLC", 503},
		{"Comcast Communication", 414},
		{"No.31, Jin-rong Street", 394},
		{"TOR", 319},
		{"Contabo GmbH", 288},
		{"Alibaba (China)", 279},
	}
}

// CentralizationRow captures Table III: the count of ASes hosting a given
// fraction of nodes in 2017 (Apostolaki et al.) versus 2018 (this paper).
type CentralizationRow struct {
	Fraction  float64
	ASes2017  int
	ASes2018  int
	ChangePct float64
}

// TableIII returns the centralization-change rows. Change is
// (N1-N2)*100/N1 as defined in §V-A.
func TableIII() []CentralizationRow {
	return []CentralizationRow{
		{0.50, 50, 24, 52},
		{0.30, 13, 8, 38},
	}
}

// TableIV returns the paper's top-5 mining pools with their hash shares and
// stratum-server AS placement. The remaining 12 pools (34.3% aggregate) are
// excluded, as in the paper.
func TableIV() []mining.Pool {
	return []mining.Pool{
		{Name: "BTC.com", HashShare: 0.25, StratumASes: []topology.ASN{37963, 45102}, StratumOrg: "AliBaba"},
		{Name: "Antpool", HashShare: 0.124, StratumASes: []topology.ASN{45102}, StratumOrg: "AliBaba"},
		{Name: "ViaBTC", HashShare: 0.117, StratumASes: []topology.ASN{45102}, StratumOrg: "AliBaba"},
		{Name: "BTC.TOP", HashShare: 0.103, StratumASes: []topology.ASN{45102}, StratumOrg: "AliBaba"},
		{Name: "F2Pool", HashShare: 0.063, StratumASes: []topology.ASN{45102, 58563}, StratumOrg: "AliBaba"},
	}
}

// VersionRow is one row of Table VIII.
type VersionRow struct {
	Index       int
	Version     string
	ReleaseDate string // YYYY-MM-DD as printed in the paper
	LagDays     int    // days between release and the data collection date
	UserShare   float64
}

// TableVIII returns the paper's top-5 Bitcoin Core versions by node share.
// The remaining 283 of the 288 observed variants share the residual 24.47%.
func TableVIII() []VersionRow {
	return []VersionRow{
		{1, "Bitcoin Core v0.16.0", "2018-02-26", 59, 0.3628},
		{2, "Bitcoin Core v0.15.1", "2017-11-11", 166, 0.2752},
		{3, "Bitcoin Core v0.15.0.1", "2017-09-19", 219, 0.0501},
		{4, "Bitcoin Core v0.14.2", "2017-06-17", 313, 0.0467},
		{5, "Bitcoin Core v0.15.0", "2017-04-22", 369, 0.0205},
	}
}

// TotalSoftwareVariants is the number of distinct client versions observed
// (§V-D: "we observed that 288 Bitcoin software variants are used by full
// nodes"; the abstract-level text rounds to "more than 200").
const TotalSoftwareVariants = 288

// Figure-3 calibration targets: the smallest number of ASes/organizations
// covering each fraction of the node population.
const (
	ASesFor30Pct = 8
	ASesFor50Pct = 24
	OrgsFor30Pct = 8
	OrgsFor50Pct = 13
)

// Table VII: top 5 ASes hosting synchronized nodes over the Figure 6(b) day.
type SyncedASRow struct {
	ASN      topology.ASN
	Org      string
	Nodes    int
	Fraction float64
}

// TableVII returns the paper's Table VII rows (for comparison in
// EXPERIMENTS.md; our regenerated table derives from the synthetic trace).
func TableVII() []SyncedASRow {
	return []SyncedASRow{
		{4134, "No.31, Jin-rong", 993, 0.0957},
		{24940, "Hetzner Online", 830, 0.0798},
		{16276, "OVH SAS", 530, 0.0522},
		{16509, "Amazon.com", 417, 0.0419},
		{14061, "DigitalOcean", 332, 0.0323},
	}
}

// Temporal-trace calibration (§V-B, Figure 6): the share of nodes in each
// behavioural class the paper's two-month trend exhibits.
const (
	// StableShare of nodes "remain synchronized on the blockchain state".
	StableShare = 0.50
	// StaleShare are "forever behind the main blockchain".
	StaleShare = 0.10
	// WavererShare "occasionally waver in terms of their view".
	WavererShare = 0.40
)

// BlockInterval re-exports the Bitcoin block time for convenience.
const BlockInterval = 600 * time.Second
