package dataset

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// genOnce caches a generated population across tests in this package; the
// generator is deterministic so sharing is safe for read-only use.
var sharedPop *Population

func testPop(t *testing.T) *Population {
	t.Helper()
	if sharedPop == nil {
		p, err := Generate(1)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		sharedPop = p
	}
	return sharedPop
}

func TestGenerateTotals(t *testing.T) {
	p := testPop(t)
	if len(p.Nodes) != TotalNodes {
		t.Fatalf("nodes = %d, want %d", len(p.Nodes), TotalNodes)
	}
	if len(p.ASRows) != BitcoinASes {
		t.Fatalf("AS rows = %d, want %d", len(p.ASRows), BitcoinASes)
	}
	var total int
	for _, r := range p.ASRows {
		total += r.Nodes
	}
	if total != TotalNodes {
		t.Errorf("AS row node sum = %d, want %d", total, TotalNodes)
	}
}

func TestFamilySplitMatchesTableI(t *testing.T) {
	p := testPop(t)
	counts := map[topology.AddrFamily]int{}
	for _, n := range p.Nodes {
		counts[n.Family]++
	}
	if counts[topology.FamilyIPv4] != IPv4Nodes {
		t.Errorf("IPv4 = %d, want %d", counts[topology.FamilyIPv4], IPv4Nodes)
	}
	if counts[topology.FamilyIPv6] != IPv6Nodes {
		t.Errorf("IPv6 = %d, want %d", counts[topology.FamilyIPv6], IPv6Nodes)
	}
	if counts[topology.FamilyOnion] != OnionNodes {
		t.Errorf("Onion = %d, want %d", counts[topology.FamilyOnion], OnionNodes)
	}
}

func TestTableIMomentsReproduce(t *testing.T) {
	p := testPop(t)
	byFamily := map[topology.AddrFamily][]NodeRecord{}
	for _, n := range p.Nodes {
		byFamily[n.Family] = append(byFamily[n.Family], n)
	}
	for _, m := range TableI() {
		nodes := byFamily[m.Family]
		var speeds, lat, upt []float64
		for _, n := range nodes {
			speeds = append(speeds, n.LinkSpeedMbs)
			lat = append(lat, n.LatencyIndex)
			upt = append(upt, n.UptimeIndex)
		}
		speedMean := stats.Mean(speeds)
		latMean := stats.Mean(lat)
		uptMean := stats.Mean(upt)
		// Heavy-tailed link speeds: sample means wander; 35% tolerance.
		if math.Abs(speedMean-m.LinkSpeedMu)/m.LinkSpeedMu > 0.35 {
			t.Errorf("%v link speed mean = %v, want ~%v", m.Family, speedMean, m.LinkSpeedMu)
		}
		if math.Abs(latMean-m.LatencyMu) > 0.06 {
			t.Errorf("%v latency mean = %v, want ~%v", m.Family, latMean, m.LatencyMu)
		}
		if math.Abs(uptMean-m.UptimeMu) > 0.06 {
			t.Errorf("%v uptime mean = %v, want ~%v", m.Family, uptMean, m.UptimeMu)
		}
		for _, n := range nodes {
			if n.LatencyIndex < 0 || n.LatencyIndex > 1 || n.UptimeIndex < 0 || n.UptimeIndex > 1 {
				t.Fatalf("index out of [0,1]: %+v", n)
			}
			if n.LinkSpeedMbs < 0 {
				t.Fatalf("negative link speed: %v", n.LinkSpeedMbs)
			}
		}
	}
	// Tor is ~17x faster than IPv4 on average in Table I; require >5x.
	var v4, tor []float64
	for _, n := range byFamily[topology.FamilyIPv4] {
		v4 = append(v4, n.LinkSpeedMbs)
	}
	for _, n := range byFamily[topology.FamilyOnion] {
		tor = append(tor, n.LinkSpeedMbs)
	}
	if stats.Mean(tor) < 5*stats.Mean(v4) {
		t.Errorf("Tor mean speed %v not well above IPv4 %v", stats.Mean(tor), stats.Mean(v4))
	}
}

func TestTableIIHeadExact(t *testing.T) {
	p := testPop(t)
	for _, want := range TableII() {
		row, ok := p.ASRow(want.ASN)
		if !ok {
			t.Fatalf("AS%d missing", want.ASN)
		}
		if row.Nodes != want.Nodes {
			t.Errorf("AS%d nodes = %d, want %d", want.ASN, row.Nodes, want.Nodes)
		}
	}
	// Org column: Table II organizations reproduce exactly.
	orgs := p.OrgNodeCounts()
	for _, want := range TableIIOrgs() {
		if got := orgs[want.Name]; got != want.Nodes {
			t.Errorf("org %q = %d nodes, want %d", want.Name, got, want.Nodes)
		}
	}
}

func TestFigure3Calibration(t *testing.T) {
	p := testPop(t)
	asCounts := make([]int, 0, len(p.ASRows))
	for _, r := range p.ASRows {
		asCounts = append(asCounts, r.Nodes)
	}
	cdf := stats.CumulativeFromCounts(asCounts)
	if err := cdf.Validate(); err != nil {
		t.Fatal(err)
	}
	r30, err := cdf.RankFor(0.30)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := cdf.RankFor(0.50)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 8 ASes -> 30%, 24 -> 50%. Table II's own counts cross 30% at
	// rank 7, so accept 7-9 and 22-26.
	if r30 < 7 || r30 > 9 {
		t.Errorf("AS rank for 30%% = %d, want 7-9 (paper: 8)", r30)
	}
	if r50 < 22 || r50 > 26 {
		t.Errorf("AS rank for 50%% = %d, want 22-26 (paper: 24)", r50)
	}

	orgCounts := make([]int, 0)
	for _, c := range p.OrgNodeCounts() {
		orgCounts = append(orgCounts, c)
	}
	ocdf := stats.CumulativeFromCounts(orgCounts)
	o50, err := ocdf.RankFor(0.50)
	if err != nil {
		t.Fatal(err)
	}
	// The paper claims both 13 (intro) and 21 (Figure 3 reading) orgs for
	// 50%; its own Table II admits no fewer than ~16. Require strictly more
	// concentrated than ASes and inside the paper's bracket.
	if o50 >= r50 {
		t.Errorf("org rank for 50%% = %d, not more concentrated than ASes (%d)", o50, r50)
	}
	if o50 < 13 || o50 > 21 {
		t.Errorf("org rank for 50%% = %d, want 13-21", o50)
	}
}

func TestUpFractionMatches(t *testing.T) {
	p := testPop(t)
	up := 0
	for _, n := range p.Nodes {
		if n.Up {
			up++
		}
	}
	wantFrac := float64(UpNodes) / float64(TotalNodes)
	gotFrac := float64(up) / float64(TotalNodes)
	if math.Abs(gotFrac-wantFrac) > 0.02 {
		t.Errorf("up fraction = %v, want ~%v", gotFrac, wantFrac)
	}
}

func TestVersionDistribution(t *testing.T) {
	p := testPop(t)
	vc := p.VersionCounts()
	if len(vc) != TotalSoftwareVariants {
		t.Errorf("variants = %d, want %d", len(vc), TotalSoftwareVariants)
	}
	for _, v := range TableVIII() {
		got := float64(vc[v.Version]) / float64(TotalNodes)
		if math.Abs(got-v.UserShare) > 0.005 {
			t.Errorf("%s share = %v, want %v", v.Version, got, v.UserShare)
		}
	}
	if vc["Falcon"] != 10 {
		t.Errorf("Falcon nodes = %d, want 10 (§V-D)", vc["Falcon"])
	}
	// The printed Table VIII top-5 ordering reproduces: no tail variant may
	// outrank v0.15.0 (rank 5, 2.05%).
	rank5 := vc["Bitcoin Core v0.15.0"]
	for v, c := range vc {
		switch v {
		case "Bitcoin Core v0.16.0", "Bitcoin Core v0.15.1", "Bitcoin Core v0.15.0.1",
			"Bitcoin Core v0.14.2", "Bitcoin Core v0.15.0":
			continue
		}
		if c >= rank5 {
			t.Errorf("tail variant %q has %d nodes, outranking v0.15.0's %d", v, c, rank5)
		}
	}
}

func TestClassSharesMatchFigure6a(t *testing.T) {
	p := testPop(t)
	counts := map[Class]int{}
	for _, n := range p.Nodes {
		counts[n.Class]++
	}
	total := float64(TotalNodes)
	if frac := float64(counts[ClassStable]) / total; math.Abs(frac-StableShare) > 0.02 {
		t.Errorf("stable share = %v, want ~%v", frac, StableShare)
	}
	if frac := float64(counts[ClassWaverer]) / total; math.Abs(frac-WavererShare) > 0.02 {
		t.Errorf("waverer share = %v, want ~%v", frac, WavererShare)
	}
	if frac := float64(counts[ClassStale]) / total; math.Abs(frac-StaleShare) > 0.02 {
		t.Errorf("stale share = %v, want ~%v", frac, StaleShare)
	}
}

func TestTopologyConsistent(t *testing.T) {
	p := testPop(t)
	if err := p.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-onion node's IP must resolve to its own AS.
	checked := 0
	for _, n := range p.Nodes {
		if n.Family == topology.FamilyOnion {
			continue
		}
		if checked > 2000 {
			break // spot check is enough; full check is O(n * routes)
		}
		if n.ID%7 != 0 {
			continue
		}
		checked++
		asn, ok := p.Topo.Resolve(n.IP)
		if !ok {
			t.Fatalf("node %d IP %v does not resolve", n.ID, n.IP)
		}
		if asn != n.ASN {
			t.Fatalf("node %d IP %v resolves to AS%d, recorded AS%d", n.ID, n.IP, asn, n.ASN)
		}
		if !n.Prefix.Contains(n.IP) {
			t.Fatalf("node %d IP %v outside its prefix %v", n.ID, n.IP, n.Prefix)
		}
	}
	if checked == 0 {
		t.Fatal("no nodes checked")
	}
}

func TestPrefixConcentrationMatchesFigure4(t *testing.T) {
	p := testPop(t)
	// Count nodes per prefix for an AS, then ask how many prefixes cover a
	// fraction of its nodes.
	prefixesFor := func(asn topology.ASN, frac float64) int {
		perPrefix := map[topology.Prefix]int{}
		for _, n := range p.NodesInAS(asn) {
			perPrefix[n.Prefix]++
		}
		counts := make([]int, 0, len(perPrefix))
		for _, c := range perPrefix {
			counts = append(counts, c)
		}
		cdf := stats.CumulativeFromCounts(counts)
		rank, err := cdf.RankFor(frac)
		if err != nil {
			t.Fatalf("AS%d: %v", asn, err)
		}
		return rank
	}
	// Figure 4: AS24940 -> 95% within ~15 prefixes (require <= 25);
	// AS16509 -> 95% needs > 140 prefixes.
	if got := prefixesFor(24940, 0.95); got > 25 {
		t.Errorf("AS24940: %d prefixes for 95%%, want <= 25 (paper ~15)", got)
	}
	if got := prefixesFor(16509, 0.95); got <= 140 {
		t.Errorf("AS16509: %d prefixes for 95%%, want > 140", got)
	}
	// "For 8 ASes, 80% nodes can be isolated by hijacking 20 BGP prefixes":
	// check the concentrated head ASes.
	for _, asn := range []topology.ASN{24940, 16276, 51167} {
		if got := prefixesFor(asn, 0.80); got > 20 {
			t.Errorf("AS%d: %d prefixes for 80%%, want <= 20", asn, got)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("node counts differ")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs between identical seeds", i)
		}
	}
}

// TestGenerateConcurrentMatchesSequential builds seeds 1 to 4 several at a
// time, each build running its own two tasks, and compares every field of
// each against a build at GOMAXPROCS 1, where Generate runs both tasks
// inline one after the other.
func TestGenerateConcurrentMatchesSequential(t *testing.T) {
	const seeds = 4
	prev := runtime.GOMAXPROCS(1)
	want := make([]string, seeds)
	for i := range want {
		p, err := Generate(int64(i) + 1)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatalf("sequential Generate(%d): %v", i+1, err)
		}
		want[i] = populationDigest(p)
	}
	runtime.GOMAXPROCS(prev)

	got, err := parallel.Map(4, 2*seeds, func(task int) (string, error) {
		p, err := Generate(int64(task%seeds) + 1)
		if err != nil {
			return "", err
		}
		return populationDigest(p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, d := range got {
		if seed := task%seeds + 1; d != want[seed-1] {
			t.Errorf("concurrent build %d of seed %d: digest %s, sequential %s", task, seed, d, want[seed-1])
		}
	}
}

// TestRowPrefixesMatchTopology checks that the prefixes the node addresses
// are drawn from are the ones the topology registered: for every row of
// seed 1, rowPrefixes equals the AS's registered prefixes, and the Tor row
// has neither. Each row's slice is capped at its own end so no consumer can
// append into the next row's prefixes.
func TestRowPrefixesMatchTopology(t *testing.T) {
	p := testPop(t)
	prefixes := rowPrefixes(p.ASRows)
	tor := 0
	for i, r := range p.ASRows {
		if cap(prefixes[i]) != len(prefixes[i]) {
			t.Fatalf("AS%d: prefix slice len %d cap %d", r.ASN, len(prefixes[i]), cap(prefixes[i]))
		}
		as, ok := p.Topo.AS(r.ASN)
		if r.ASN == topology.TorASN {
			tor++
			if ok || len(prefixes[i]) != 0 {
				t.Errorf("Tor row: registered %v, %d derived prefixes; want neither", ok, len(prefixes[i]))
			}
			continue
		}
		if !ok {
			t.Fatalf("AS%d not in topology", r.ASN)
		}
		if len(prefixes[i]) != r.Prefixes || !slices.Equal(prefixes[i], as.Prefixes) {
			t.Fatalf("AS%d: derived %d prefixes %v, topology has %v", r.ASN, len(prefixes[i]), prefixes[i], as.Prefixes)
		}
	}
	if tor != 1 {
		t.Errorf("%d Tor rows, want 1", tor)
	}
}

// TestZeroPrefixRow covers a non-Tor row without prefixes, which generation
// never makes but a pop.v1 archive may hold: it registers with no prefixes,
// its nodes get no address, and the rows around it carve their blocks as
// if it were absent.
func TestZeroPrefixRow(t *testing.T) {
	rows := []ASRow{
		{ASN: 1, Name: "A", Org: "A", Nodes: 3, Prefixes: 2, Concentration: 1},
		{ASN: 2, Name: "B", Org: "B", Nodes: 2, Prefixes: 0, Concentration: 1},
		{ASN: topology.TorASN, Name: "TOR", Org: "TOR", Nodes: 1},
		{ASN: 3, Name: "C", Org: "C", Nodes: 1, Prefixes: 1, Concentration: 1},
	}
	prefixes := rowPrefixes(rows)
	topo, err := buildTopology(rows, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		as, ok := topo.AS(r.ASN)
		if r.ASN == topology.TorASN {
			if ok {
				t.Error("Tor row registered")
			}
			continue
		}
		if !ok || !slices.Equal(as.Prefixes, prefixes[i]) {
			t.Fatalf("AS%d: topology %v, derived %v", r.ASN, as, prefixes[i])
		}
	}
	if len(prefixes[1]) != 0 || prefixes[3][0].Base != prefixes[0][1].Base+1<<12 {
		t.Fatalf("derived prefixes %v: the zero-prefix row took a block", prefixes)
	}
	addrs, err := addressNodes(rows, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 7 {
		t.Fatalf("%d addresses, want 7", len(addrs))
	}
	for _, k := range []int{3, 4, 5} { // AS2's two nodes and the onion node
		if addrs[k] != (nodeAddr{}) {
			t.Errorf("node %d: address %+v, want none", k, addrs[k])
		}
	}
	if addrs[0].prefix != prefixes[0][0] || addrs[0].ip != prefixes[0][0].Base+1 {
		t.Errorf("node 0: address %+v, want .1 of %v", addrs[0], prefixes[0][0])
	}
	if addrs[6].prefix != prefixes[3][0] || addrs[6].ip != prefixes[3][0].Base+1 {
		t.Errorf("node 6: address %+v, want .1 of %v", addrs[6], prefixes[3][0])
	}
}

func TestOnionNodesHaveNoIP(t *testing.T) {
	p := testPop(t)
	for _, n := range p.Nodes {
		if n.Family == topology.FamilyOnion {
			if n.IP != 0 {
				t.Fatalf("onion node %d has IP %v", n.ID, n.IP)
			}
			if n.ASN != topology.TorASN {
				t.Fatalf("onion node %d in AS%d", n.ID, n.ASN)
			}
		}
	}
}
