package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/p2p"
)

// runScenario runs a small mining simulation under the scenario and
// returns the outcome triple the determinism tests compare.
func runScenario(t *testing.T, sc faults.Scenario, o *obs.Observer) (int, p2p.LagBuckets, p2p.Stats) {
	t.Helper()
	s, err := FromConfig(Config{
		Nodes:  60,
		Seed:   4,
		Gossip: p2p.Config{FailureRate: 1e-12, Obs: o},
		Faults: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	s.Run(10 * time.Hour)
	return s.BlocksProduced(), s.LagHistogram(), s.Network.MsgStats()
}

// TestScenarioRunDeterministic: two same-seed runs under an active fault
// scenario must agree on every observable, including the injected-fault
// metrics — the engine draws all fault randomness from seeded streams.
func TestScenarioRunDeterministic(t *testing.T) {
	for _, sc := range []faults.Scenario{faults.Churny(), faults.Flaky(), faults.HijackRecovery()} {
		t.Run(sc.Name, func(t *testing.T) {
			o1, o2 := obs.NewMetricsOnly(), obs.NewMetricsOnly()
			b1, l1, m1 := runScenario(t, sc, o1)
			b2, l2, m2 := runScenario(t, sc, o2)
			if b1 != b2 || l1 != l2 || m1 != m2 {
				t.Errorf("same-seed %s runs diverged: (%d,%+v,%+v) vs (%d,%+v,%+v)",
					sc.Name, b1, l1, m1, b2, l2, m2)
			}
			r1, r2 := o1.Metrics.Snapshot().Render(), o2.Metrics.Snapshot().Render()
			if r1 != r2 {
				t.Errorf("same-seed %s metric snapshots diverged:\n%s\nvs\n%s", sc.Name, r1, r2)
			}
			if !strings.Contains(r1, "faults.injected") {
				t.Errorf("%s run injected no faults:\n%s", sc.Name, r1)
			}
		})
	}
}

// TestChurnTakesNodesDownAndBack: under churny, nodes go down and come
// back (churn_up fires), and gateways never churn.
func TestChurnTakesNodesDownAndBack(t *testing.T) {
	o := obs.NewMetricsOnly()
	s, err := FromConfig(Config{
		Nodes: 60, Seed: 4,
		Gossip: p2p.Config{FailureRate: 1e-12, Obs: o},
		Faults: faults.Churny(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	s.Run(24 * time.Hour)
	var downs, ups uint64
	for _, p := range o.Metrics.Snapshot().Counters {
		switch p.Name {
		case "faults.injected{kind=churn_down}":
			downs = p.Value
		case "faults.injected{kind=churn_up}":
			ups = p.Value
		}
	}
	if downs == 0 || ups == 0 {
		t.Fatalf("24h churny run: churn_down=%d churn_up=%d, want both > 0", downs, ups)
	}
	for _, gw := range s.Gateways() {
		if !s.Network.Nodes[gw].Up {
			t.Errorf("gateway %d churned out", gw)
		}
	}
}

// TestZeroScenarioMatchesNoFaults: an explicit zero-value Scenario must
// leave the simulation byte-identical to one with no Faults field at all.
func TestZeroScenarioMatchesNoFaults(t *testing.T) {
	b1, l1, m1 := runScenario(t, faults.Scenario{}, nil)
	s, err := FromConfig(Config{Nodes: 60, Seed: 4, Gossip: p2p.Config{FailureRate: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	s.StartMining()
	s.Run(10 * time.Hour)
	if b1 != s.BlocksProduced() || l1 != s.LagHistogram() || m1 != s.Network.MsgStats() {
		t.Errorf("zero-value Scenario perturbed the run: (%d,%+v,%+v) vs (%d,%+v,%+v)",
			b1, l1, m1, s.BlocksProduced(), s.LagHistogram(), s.Network.MsgStats())
	}
}
