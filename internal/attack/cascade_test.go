package attack

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/stats"
	"repro/internal/topology"
)

// borderSim builds the structured cascade topology: victim AS nodes 0..29,
// of which 0..5 are border nodes holding all external connectivity; the
// interior peers only within the AS. Honest blocks enter at the last node.
func borderSim(t *testing.T, seed int64) *netsim.Simulation {
	t.Helper()
	const (
		total    = 100
		asSize   = 30
		borders  = 6
		outPeers = 8
	)
	rng := stats.NewRand(seed)
	nodes := make([]*p2p.Node, total)
	outbound := make([][]p2p.NodeID, total)
	for i := range nodes {
		asn := topology.ASN(24940)
		if i >= asSize {
			asn = topology.ASN(60000)
		}
		nodes[i] = p2p.NewNode(p2p.NodeID(i), p2p.Profile{ASN: asn})
		for len(outbound[i]) < outPeers {
			var p int
			switch {
			case i < borders:
				if len(outbound[i])%2 == 0 {
					p = rng.Intn(asSize)
				} else {
					p = asSize + rng.Intn(total-asSize)
				}
			case i < asSize:
				p = rng.Intn(asSize)
			default:
				p = asSize + rng.Intn(total-asSize)
			}
			if p == i {
				continue
			}
			outbound[i] = append(outbound[i], p2p.NodeID(p))
		}
	}
	sim, err := netsim.FromConfig(netsim.Config{
		Seed:         seed,
		Population:   nodes,
		Outbound:     outbound,
		GatewayNodes: []p2p.NodeID{total - 1},
		Gossip:       p2p.Config{FailureRate: 0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestCascadeBorderCutStrandsInterior(t *testing.T) {
	// Cutting only the border subset (20% of the AS) must starve every
	// interior survivor, while cutting half the border (10%) must not.
	run := func(frac float64) *CascadeResult {
		sim := borderSim(t, 7)
		sim.StartMining()
		sim.Run(4 * time.Hour)
		res, err := ExecuteCascade(sim, CascadeConfig{
			Victim:      24940,
			CutFraction: frac,
			RunFor:      12 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	partial := run(0.1) // cuts 3 of 6 border nodes
	full := run(0.2)    // cuts all 6 border nodes

	if partial.SurvivorsBehind > partial.Survivors/4 {
		t.Errorf("partial border cut already strands %d of %d survivors",
			partial.SurvivorsBehind, partial.Survivors)
	}
	if full.SurvivorsBehind != full.Survivors {
		t.Errorf("full border cut strands %d of %d survivors, want all",
			full.SurvivorsBehind, full.Survivors)
	}
	if full.MeanSurvivorLag < 10 {
		t.Errorf("mean survivor lag %.1f too small for a 12h eclipse", full.MeanSurvivorLag)
	}
	// The outside world is unaffected — the control group.
	if full.OutsideBehindFrac > 0.1 {
		t.Errorf("outside behind fraction %.2f; the cascade should be contained", full.OutsideBehindFrac)
	}
}

func TestCascadeGatewayPinning(t *testing.T) {
	sim := borderSim(t, 3)
	gws := sim.Gateways()
	if len(gws) != 1 || gws[0] != 99 {
		t.Errorf("gateways = %v, want [99]", gws)
	}
	if !sim.IsGateway(99) || sim.IsGateway(0) {
		t.Error("IsGateway inconsistent with pinning")
	}
}

func TestWithGraphValidation(t *testing.T) {
	nodes := []*p2p.Node{p2p.NewNode(0, p2p.Profile{}), p2p.NewNode(1, p2p.Profile{})}
	graphSim := func(outbound [][]p2p.NodeID, gateways ...p2p.NodeID) error {
		_, err := netsim.FromConfig(netsim.Config{
			Seed: 1, Population: nodes, Outbound: outbound, GatewayNodes: gateways,
		})
		return err
	}
	// Row count mismatch.
	if err := graphSim([][]p2p.NodeID{{1}}); err == nil {
		t.Error("row mismatch accepted")
	}
	// Self loop.
	if err := graphSim([][]p2p.NodeID{{0}, {0}}); err == nil {
		t.Error("self loop accepted")
	}
	// Out of range.
	if err := graphSim([][]p2p.NodeID{{5}, {0}}); err == nil {
		t.Error("out-of-range peer accepted")
	}
	// Valid.
	if err := graphSim([][]p2p.NodeID{{1}, {0}}); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	// Gateway out of range.
	if err := graphSim([][]p2p.NodeID{{1}, {0}}, 9); err == nil {
		t.Error("out-of-range gateway accepted")
	}
}
