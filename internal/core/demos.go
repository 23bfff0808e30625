package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/spv"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The paper's Figures 1, 2, and 5 are illustrations of the model rather
// than measurements. Each gets a runnable demonstration that exercises the
// corresponding machinery end to end, so the repository covers every
// figure with executable code.

// NewSimFromPopulation builds a live network simulation of n nodes whose
// profiles are sampled from the study's population, under the study's
// fault scenario and observer (netsim.FromPopulation).
func (s *Study) NewSimFromPopulation(n int, seed int64) (*netsim.Simulation, error) {
	return netsim.FromPopulation(s.Pop, n, seed, s.Opts.Faults, s.obs)
}

// Figure1Demo runs the full model of Figure 1: full nodes plus the
// lightweight clients that inherit their providers' chain views. Nodes that
// lag expose every wallet behind them to an outdated (or counterfeit)
// chain.
func (s *Study) Figure1Demo() (string, error) {
	sim, err := s.NewSimFromPopulation(s.Opts.NetworkNodes, s.seed)
	if err != nil {
		return "", err
	}
	fleet, err := spv.NewFleet(sim, s.Opts.NetworkNodes*20, stats.NewRand(s.seed+1), nil)
	if err != nil {
		return "", err
	}
	sim.StartMining()
	sim.Run(4 * time.Hour)
	lag := sim.LagHistogram()
	exp := fleet.Exposure()
	var b strings.Builder
	b.WriteString("Figure 1 (model demo): full nodes, lightweight clients, and chain views\n")
	fmt.Fprintf(&b, "after 4h of mining: %d blocks published\n", sim.BlocksProduced())
	fmt.Fprintf(&b, "full nodes — updated view: %d; 1 behind: %d; 2-4 behind: %d\n",
		lag.Synced, lag.Behind1, lag.Behind2to4)
	fmt.Fprintf(&b, "lightweight clients (%d attached) — inheriting a stale view: %d\n",
		fleet.Size(), exp.Stale)
	b.WriteString("each misled full node misleads every wallet behind it (the paper's o(10^7) USD per node)\n")
	return b.String(), nil
}

// Figure2Demo builds the organization/AS/BGP topology of Figure 2 and
// launches the illustrated hijacks (organization D attacks F, E attacks B).
func (s *Study) Figure2Demo() (string, error) {
	topo := topology.New()
	mk := func(asn topology.ASN, org, cidr string) topology.AS {
		p, err := topology.ParsePrefix(cidr)
		if err != nil {
			panic(err)
		}
		return topology.AS{Number: asn, Name: org, Org: org, Prefixes: []topology.Prefix{p}}
	}
	for _, as := range []topology.AS{
		mk(100, "Org B", "10.1.0.0/16"),
		mk(200, "Org D", "10.2.0.0/16"),
		mk(300, "Org E", "10.3.0.0/16"),
		mk(400, "Org F", "10.4.0.0/16"),
	} {
		if err := topo.AddAS(as); err != nil {
			return "", err
		}
	}
	victimF, _ := topology.ParsePrefix("10.4.0.0/16")
	victimB, _ := topology.ParsePrefix("10.1.0.0/16")
	if err := topo.Routes().HijackPrefix(200, victimF); err != nil {
		return "", err
	}
	if err := topo.Routes().HijackPrefix(300, victimB); err != nil {
		return "", err
	}
	probeF, _ := topology.ParseIP("10.4.7.7")
	probeB, _ := topology.ParseIP("10.1.7.7")
	gotF, _ := topo.Resolve(probeF)
	gotB, _ := topo.Resolve(probeB)
	var b strings.Builder
	b.WriteString("Figure 2 (model demo): BGP hijacks across organizations\n")
	fmt.Fprintf(&b, "Org D (AS200) announces more-specific halves of Org F's 10.4.0.0/16: traffic for %v now routes to AS%d\n", probeF, gotF)
	fmt.Fprintf(&b, "Org E (AS300) announces more-specific halves of Org B's 10.1.0.0/16: traffic for %v now routes to AS%d\n", probeB, gotB)
	return b.String(), nil
}

// Figure5Demo executes the temporal attack of Figure 5 on a live network
// of the study's scale (attack.Figure5).
func (s *Study) Figure5Demo() (*attack.TemporalResult, string, error) {
	sim, err := s.NewSimFromPopulation(s.Opts.NetworkNodes, s.seed)
	if err != nil {
		return nil, "", err
	}
	return attack.Figure5(sim)
}
