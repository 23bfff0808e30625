package spv

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/stats"
)

func testSim(t *testing.T, nodes int, seed int64) *netsim.Simulation {
	t.Helper()
	sim, err := netsim.FromConfig(netsim.Config{
		Nodes: nodes, Seed: seed,
		Gossip: p2p.Config{FailureRate: 0.10, MeanRelayDelay: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewFleetValidation(t *testing.T) {
	sim := testSim(t, 20, 1)
	rng := stats.NewRand(1)
	if _, err := NewFleet(nil, 10, rng, nil); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewFleet(sim, 0, rng, nil); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := NewFleet(sim, 10, nil, nil); err == nil {
		t.Error("nil rng accepted")
	}
	// All nodes down: nothing to attach to.
	for _, n := range sim.Network.Nodes {
		n.Up = false
	}
	if _, err := NewFleet(sim, 10, rng, nil); err == nil {
		t.Error("all-down network accepted")
	}
}

func TestFleetAttachment(t *testing.T) {
	sim := testSim(t, 30, 2)
	f, err := NewFleet(sim, 500, stats.NewRand(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 500 {
		t.Fatalf("size = %d", f.Size())
	}
	total := 0
	for _, node := range sim.Network.Nodes {
		total += f.ClientsOf(node.ID)
	}
	if total != 500 {
		t.Errorf("per-provider counts sum to %d", total)
	}
}

func TestExposureTracksProviders(t *testing.T) {
	sim := testSim(t, 40, 5)
	sim.StartMining()
	sim.Run(4 * time.Hour)
	f, err := NewFleet(sim, 1000, stats.NewRand(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Exposure()
	if e.ByLag.Total() != 1000 {
		t.Fatalf("lag histogram total = %d", e.ByLag.Total())
	}
	// Healthy network: almost everyone synced, nobody on counterfeit.
	if e.OnCounterfeit != 0 {
		t.Errorf("counterfeit exposure %d without attack", e.OnCounterfeit)
	}
	if e.Stale > 200 {
		t.Errorf("stale clients = %d of 1000 in a healthy network", e.Stale)
	}
}

func TestCounterfeitExposureUnderTemporalAttack(t *testing.T) {
	sim := testSim(t, 80, 11)
	sim.StartMining()
	sim.Run(6 * time.Hour)
	f, err := NewFleet(sim, 2000, stats.NewRand(13), nil)
	if err != nil {
		t.Fatal(err)
	}
	victims := attack.FindVictims(sim, 0, 16)
	victimClients := 0
	for _, v := range victims {
		victimClients += f.ClientsOf(v)
	}
	if victimClients == 0 {
		t.Skip("no clients attached to victims at this seed")
	}

	// Freeze the attack at its held state: run the hold phase only by
	// giving a zero heal window, then measure exposure immediately.
	res, err := attack.ExecuteTemporalOn(sim, attack.TemporalConfig{
		AttackerShare: 0.30, HoldFor: 8 * time.Hour, HealFor: 0,
	}, victims)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapturedAtRelease == 0 {
		t.Fatal("attack captured nothing")
	}
	e := f.Exposure()
	// Note: after HealFor=0 the partition is released but no virtual time
	// has passed, so providers still hold the counterfeit view.
	if e.OnCounterfeit == 0 {
		t.Error("no lightweight clients inherited the counterfeit chain")
	}
}

func TestFleetDeterminism(t *testing.T) {
	sim := testSim(t, 25, 9)
	a, err := NewFleet(sim, 300, stats.NewRand(21), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFleet(sim, 300, stats.NewRand(21), nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.clients, b.clients
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("client %d differs between identical seeds", i)
		}
	}
}

func TestCustomWeight(t *testing.T) {
	sim := testSim(t, 10, 3)
	// All weight on node 4.
	f, err := NewFleet(sim, 100, stats.NewRand(5), func(n *p2p.Node) float64 {
		if n.ID == 4 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.ClientsOf(4) != 100 {
		t.Errorf("node 4 serves %d clients, want 100", f.ClientsOf(4))
	}
}
