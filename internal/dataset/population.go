package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Class is a node's temporal behaviour class, from the paper's Figure 6(a)
// reading: ~50% stay synchronized, ~40% waver, ~10% are forever behind.
type Class int

// Behaviour classes. Enums start at one so the zero value is invalid.
const (
	ClassInvalid Class = iota
	ClassStable
	ClassWaverer
	ClassStale
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassStable:
		return "stable"
	case ClassWaverer:
		return "waverer"
	case ClassStale:
		return "stale"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// NodeRecord is one full node of the synthetic crawl: everything Bitnodes
// records about a reachable node (§IV-A), plus the generator's behavioural
// parameters.
type NodeRecord struct {
	ID           int
	Family       topology.AddrFamily
	ASN          topology.ASN
	Org          string
	IP           topology.IP // zero for onion nodes
	Prefix       topology.Prefix
	LinkSpeedMbs float64
	LatencyIndex float64
	UptimeIndex  float64
	Up           bool
	Version      string
	Class        Class
	// MeanCatchup is the node's mean delay to fetch a newly published block,
	// driving the lag trace.
	MeanCatchup time.Duration
}

// Population is the synthetic Feb-28-2018 snapshot.
type Population struct {
	Nodes []NodeRecord
	Topo  *topology.Topology
	// ASRows are all generated ASes (paper head + calibrated tail) with
	// their node counts and prefix info, sorted by node count descending.
	ASRows []ASRow
	// asIndex maps ASN to position in ASRows.
	asIndex map[topology.ASN]int
}

// Generate builds the population from a seed. The same seed reproduces the
// identical population byte for byte.
func Generate(seed int64) (*Population, error) {
	rng := stats.NewRand(seed)

	rows, err := buildASRows(rng)
	if err != nil {
		return nil, err
	}
	topo, err := buildTopology(rows)
	if err != nil {
		return nil, err
	}
	p := &Population{Topo: topo, ASRows: rows, asIndex: map[topology.ASN]int{}}
	for i, r := range rows {
		p.asIndex[r.ASN] = i
	}
	if err := p.populateNodes(rng); err != nil {
		return nil, err
	}
	return p, nil
}

// buildASRows assembles the full 1,660-AS roster: Table II's head,
// the secondary ASes of multi-AS organizations, a mid tail calibrated so
// the Figure 3 CDF hits its published marks (~8 ASes -> 30%, ~24 -> 50%),
// and a Zipf far tail.
func buildASRows(rng *rand.Rand) ([]ASRow, error) {
	rows := append([]ASRow(nil), TableII()...)
	rows = append(rows, SecondaryASes()...)

	var fixedNodes int
	for _, r := range rows {
		fixedNodes += r.Nodes
	}

	// Mid tail: twelve ASes descending from just below AS14618's 147,
	// calibrated so cumulative AS coverage crosses 50% near rank 24
	// (Figure 3 / Table III).
	midCounts := []int{145, 142, 138, 133, 128, 124, 120, 116, 112, 108, 100, 90}
	var midTotal int
	for _, c := range midCounts {
		midTotal += c
	}

	// Group the mid tail into six conglomerate organizations of two ASes
	// each, every pair summing below Alibaba (China)'s 279 nodes so the
	// printed Table II organization column reproduces exactly, while the
	// grouping still makes organizations more concentrated than ASes (the
	// paper variously claims 13 and 21 organizations for 50%; its own
	// Table II admits no fewer than ~16, which is where this lands).
	midOrgs := []string{
		"LeaseWeb B.V.", "Google LLC", "Online S.A.S.",
		"Choopa, LLC", "Linode, LLC", "SoftLayer Technologies",
	}
	midCountries := []string{"NL", "US", "FR", "US", "US", "US"}
	// orgOf pairs a large AS with a small one: (145,133) (142,128) ...
	orgOf := []int{0, 1, 2, 0, 1, 2, 3, 4, 5, 3, 4, 5}
	nextASN := topology.ASN(60000)
	for i, c := range midCounts {
		rows = append(rows, ASRow{
			ASN:           nextASN,
			Name:          fmt.Sprintf("MIDTAIL-%d", i+1),
			Org:           midOrgs[orgOf[i]],
			Nodes:         c,
			Prefixes:      8 + rng.Intn(40),
			Concentration: 1.0 + rng.Float64(),
			Country:       midCountries[orgOf[i]],
		})
		nextASN++
	}

	// Far tail: the remaining ASes share the remaining nodes under a Zipf
	// law, each with at least one node.
	tailASes := BitcoinASes - len(rows)
	tailNodes := TotalNodes - fixedNodes - midTotal
	if tailASes <= 0 || tailNodes < tailASes {
		return nil, fmt.Errorf("dataset: tail infeasible: %d ASes, %d nodes", tailASes, tailNodes)
	}
	weights := stats.ZipfWeights(tailASes, 0.78)
	counts, err := stats.Multinomial(tailNodes-tailASes, weights)
	if err != nil {
		return nil, fmt.Errorf("dataset: tail split: %w", err)
	}
	for i := 0; i < tailASes; i++ {
		n := counts[i] + 1 // every AS hosts at least one node
		// Cap tail counts below the mid tail's floor to preserve rank
		// structure; redistribute overflow to the next AS.
		if n > 65 {
			if i+1 < tailASes {
				counts[i+1] += n - 65
			}
			n = 65
		}
		org := fmt.Sprintf("ISP-%04d", i+1)
		// Every ~30th tail AS joins its predecessor's organization, giving
		// the organization curve its extra concentration.
		if i > 0 && i%30 == 0 {
			org = fmt.Sprintf("ISP-%04d", i)
		}
		rows = append(rows, ASRow{
			ASN:           nextASN,
			Name:          fmt.Sprintf("TAIL-%d", i+1),
			Org:           org,
			Nodes:         n,
			Prefixes:      1 + n/3 + rng.Intn(3),
			Concentration: 0.8 + rng.Float64(),
			Country:       "",
		})
		nextASN++
	}

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Nodes > rows[j].Nodes })

	var total int
	for _, r := range rows {
		total += r.Nodes
	}
	if total != TotalNodes {
		return nil, fmt.Errorf("dataset: generated %d nodes, want %d", total, TotalNodes)
	}
	if len(rows) != BitcoinASes {
		return nil, fmt.Errorf("dataset: generated %d ASes, want %d", len(rows), BitcoinASes)
	}
	return rows, nil
}

// buildTopology registers every non-Tor AS with synthetic prefixes carved
// sequentially out of 10.0.0.0 and beyond as /20 blocks (4094 hosts each, so
// even the most concentrated prefix of the largest AS fits its nodes).
func buildTopology(rows []ASRow) (*topology.Topology, error) {
	topo := topology.New()
	nextBlock := uint32(10 << 24) // start at 10.0.0.0
	for _, r := range rows {
		if r.ASN == topology.TorASN {
			continue
		}
		prefixes := make([]topology.Prefix, 0, r.Prefixes)
		for i := 0; i < r.Prefixes; i++ {
			p, err := topology.NewPrefix(topology.IP(nextBlock), 20)
			if err != nil {
				return nil, err
			}
			prefixes = append(prefixes, p)
			nextBlock += 1 << 12
		}
		err := topo.AddAS(topology.AS{
			Number:   r.ASN,
			Name:     r.Name,
			Org:      r.Org,
			Prefixes: prefixes,
			Country:  r.Country,
		})
		if err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// populateNodes creates the node records: AS placement, per-AS prefix
// assignment (Zipf-concentrated per Figure 4), family split and Table I
// characteristics, up/down state, software version, and behaviour class.
func (p *Population) populateNodes(rng *rand.Rand) error {
	p.Nodes = make([]NodeRecord, 0, TotalNodes)
	id := 0

	versions := buildVersionDeck(rng)
	vIdx := 0

	// Family assignment: onion nodes are exactly the TOR pseudo-AS's
	// population; IPv6 nodes are spread across ASes.
	ipv6Left := IPv6Nodes

	for _, row := range p.ASRows {
		prefixCounts, prefixes, err := p.prefixPlan(row)
		if err != nil {
			return err
		}
		prefixCursor := 0
		inPrefix := 0
		for k := 0; k < row.Nodes; k++ {
			rec := NodeRecord{ID: id, ASN: row.ASN, Org: row.Org}
			if row.ASN == topology.TorASN {
				rec.Family = topology.FamilyOnion
			} else {
				// Advance to the next prefix with remaining quota.
				for prefixCursor < len(prefixCounts) && inPrefix >= prefixCounts[prefixCursor] {
					prefixCursor++
					inPrefix = 0
				}
				if prefixCursor < len(prefixes) {
					rec.Prefix = prefixes[prefixCursor]
					rec.IP = rec.Prefix.Base + topology.IP(1+inPrefix)
					inPrefix++
				}
				rec.Family = topology.FamilyIPv4
				// IPv6 share sprinkled proportionally across non-Tor nodes.
				if ipv6Left > 0 && stats.Bernoulli(rng, float64(IPv6Nodes)/float64(TotalNodes-OnionNodes)) {
					rec.Family = topology.FamilyIPv6
					ipv6Left--
				}
			}
			fillCharacteristics(&rec, rng)
			rec.Version = versions[vIdx%len(versions)]
			vIdx++
			assignClass(&rec, rng)
			p.Nodes = append(p.Nodes, rec)
			id++
		}
	}
	if len(p.Nodes) != TotalNodes {
		return fmt.Errorf("dataset: populated %d nodes, want %d", len(p.Nodes), TotalNodes)
	}
	return nil
}

// prefixPlan splits an AS's node population over its prefixes with the
// row's Zipf concentration, reproducing the per-AS hijack curves of
// Figure 4 (15 prefixes isolate 95% of Hetzner; >140 needed for Amazon).
func (p *Population) prefixPlan(row ASRow) ([]int, []topology.Prefix, error) {
	if row.ASN == topology.TorASN || row.Prefixes == 0 {
		return nil, nil, nil
	}
	as, ok := p.Topo.AS(row.ASN)
	if !ok {
		return nil, nil, fmt.Errorf("dataset: AS%d not in topology", row.ASN)
	}
	weights := stats.ZipfWeights(row.Prefixes, row.Concentration)
	counts, err := stats.Multinomial(row.Nodes, weights)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: prefix plan AS%d: %w", row.ASN, err)
	}
	return counts, as.Prefixes, nil
}

// fillCharacteristics samples Table I's link speed and indices plus the
// up/down flag for one node.
func fillCharacteristics(rec *NodeRecord, rng *rand.Rand) {
	var m FamilyMoments
	for _, fm := range TableI() {
		if fm.Family == rec.Family {
			m = fm
			break
		}
	}
	rec.LinkSpeedMbs = stats.LogNormalFromMoments(rng, m.LinkSpeedMu, m.LinkSpeedSig)
	rec.LatencyIndex = stats.BetaFromMoments(rng, m.LatencyMu, m.LatencySig)
	rec.UptimeIndex = stats.BetaFromMoments(rng, m.UptimeMu, m.UptimeSig)
	rec.Up = stats.Bernoulli(rng, float64(UpNodes)/float64(TotalNodes))
}

// assignClass draws the behaviour class (50/40/10) and a per-node mean
// catch-up delay: seconds for stable nodes, minutes for waverers, the
// better part of a day for stale nodes. Nodes with a high latency index
// (responsive) catch up faster within their class.
func assignClass(rec *NodeRecord, rng *rand.Rand) {
	u := rng.Float64()
	speedup := 0.6 + 0.8*(1-rec.LatencyIndex) // responsive nodes: 0.6x, slow: 1.4x
	switch {
	case u < StableShare:
		rec.Class = ClassStable
		rec.MeanCatchup = time.Duration(float64(45*time.Second) * speedup)
	case u < StableShare+WavererShare:
		rec.Class = ClassWaverer
		mins := 2 + rng.Float64()*13 // 2-15 minutes
		rec.MeanCatchup = time.Duration(mins * speedup * float64(time.Minute))
	default:
		rec.Class = ClassStale
		hours := 24 + rng.Float64()*48
		rec.MeanCatchup = time.Duration(hours * float64(time.Hour))
	}
}

// buildVersionDeck deals software versions in exact Table VIII proportions:
// a shuffled deck of TotalNodes version strings with the top five versions
// at their published shares, Falcon at its 10 nodes (§V-D), and the
// remaining variants under a Zipf tail, 288 variants in total.
func buildVersionDeck(rng *rand.Rand) []string {
	deck := make([]string, 0, TotalNodes)
	assigned := 0
	for _, v := range TableVIII() {
		n := int(v.UserShare * TotalNodes)
		for i := 0; i < n; i++ {
			deck = append(deck, v.Version)
		}
		assigned += n
	}
	// Falcon: the custom relay-optimized client run by 10 nodes.
	const falconNodes = 10
	for i := 0; i < falconNodes; i++ {
		deck = append(deck, "Falcon")
	}
	assigned += falconNodes

	// Remaining variants: 288 total = 5 top + Falcon + 282 others. Each
	// tail variant stays below Table VIII's rank-5 share (v0.15.0, 2.05%)
	// so the printed top-5 reproduces exactly; overflow rolls forward.
	others := TotalSoftwareVariants - 6
	rest := TotalNodes - assigned
	weights := stats.ZipfWeights(others, 1.05)
	counts, err := stats.Multinomial(rest-others, weights)
	if err != nil {
		// Cannot happen: weights are a valid Zipf vector.
		panic(fmt.Sprintf("dataset: version tail: %v", err))
	}
	rank5 := int(TableVIII()[4].UserShare * TotalNodes)
	cap5 := rank5 - 10
	for i := 0; i < others; i++ {
		if counts[i]+1 > cap5 {
			overflow := counts[i] + 1 - cap5
			counts[i] = cap5 - 1
			if i+1 < others {
				counts[i+1] += overflow
			}
		}
	}
	names := otherClientNames(others)
	for i := 0; i < others; i++ {
		for k := 0; k < counts[i]+1; k++ {
			deck = append(deck, names[i])
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// otherClientNames fabricates the long tail of client identifiers: older
// Core releases, forks, and alternative implementations.
func otherClientNames(n int) []string {
	base := []string{
		"Bitcoin Core v0.14.1", "Bitcoin Core v0.14.0", "Bitcoin Core v0.13.2",
		"Bitcoin Core v0.13.1", "Bitcoin Core v0.13.0", "Bitcoin Core v0.12.1",
		"Bitcoin Core v0.12.0", "Bitcoin Core v0.11.2", "Bitcoin Core v0.10.3",
		"Bitcoin Unlimited v1.1.2", "Bitcoin ABC v0.16.2", "Bitcoin XT v0.11.0",
		"btcd v0.12.0", "bcoin v1.0.0", "libbitcoin v3.4.0", "bitcore v1.1.0",
	}
	out := make([]string, 0, n)
	out = append(out, base...)
	for i := len(base); i < n; i++ {
		out = append(out, fmt.Sprintf("Satoshi variant %03d", i-len(base)+1))
	}
	return out[:n]
}

// --- Query helpers used by the analyses -----------------------------------

// OrgNodeCounts returns nodes per organization.
func (p *Population) OrgNodeCounts() map[string]int {
	out := map[string]int{}
	for _, r := range p.ASRows {
		out[r.Org] += r.Nodes
	}
	return out
}

// NodesInAS returns the records of nodes hosted by the AS.
func (p *Population) NodesInAS(asn topology.ASN) []NodeRecord {
	var out []NodeRecord
	for _, n := range p.Nodes {
		if n.ASN == asn {
			out = append(out, n)
		}
	}
	return out
}

// ASRow returns the generated row for an ASN.
func (p *Population) ASRow(asn topology.ASN) (ASRow, bool) {
	i, ok := p.asIndex[asn]
	if !ok {
		return ASRow{}, false
	}
	return p.ASRows[i], true
}

// VersionCounts returns the number of nodes per software version.
func (p *Population) VersionCounts() map[string]int {
	out := map[string]int{}
	for _, n := range p.Nodes {
		out[n.Version]++
	}
	return out
}
