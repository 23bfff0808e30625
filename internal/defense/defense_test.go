package defense

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/topology"
)

func warmSim(t *testing.T, nodes int, seed int64) *netsim.Simulation {
	t.Helper()
	sim, err := netsim.FromConfig(netsim.Config{
		Nodes: nodes, Seed: seed,
		Gossip: p2p.Config{FailureRate: 0.10, MeanRelayDelay: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	sim.Run(6 * time.Hour)
	return sim
}

func TestBlockAwareValidation(t *testing.T) {
	if _, err := NewBlockAware(nil, nil, BlockAwareConfig{}); err == nil {
		t.Error("nil sim accepted")
	}
	sim := warmSim(t, 20, 1)
	if _, err := NewBlockAware(sim, nil, BlockAwareConfig{Threshold: -time.Second}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestBlockAwareDefeatsTemporalAttack(t *testing.T) {
	// Identical attacks, with and without BlockAware on the victims: the
	// protected run must end with fewer captured victims.
	run := func(protect bool) *attack.TemporalResult {
		sim := warmSim(t, 80, 17)
		victims := attack.FindVictims(sim, 0, 16)
		if protect {
			ba, err := NewBlockAware(sim, victims, BlockAwareConfig{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			ba.Start()
			defer ba.Stop()
		}
		res, err := attack.ExecuteTemporalOn(sim, attack.TemporalConfig{
			AttackerShare: 0.30,
			HoldFor:       8 * time.Hour,
			HealFor:       2 * time.Hour,
		}, victims)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseline := run(false)
	protected := run(true)
	if baseline.CapturedAtRelease == 0 {
		t.Fatal("baseline attack captured nothing; cannot compare")
	}
	if protected.CapturedAtRelease >= baseline.CapturedAtRelease {
		t.Errorf("BlockAware did not help: captured %d protected vs %d baseline",
			protected.CapturedAtRelease, baseline.CapturedAtRelease)
	}
}

func TestBlockAwareTriggersOnStaleness(t *testing.T) {
	sim := warmSim(t, 30, 9)
	ba, err := NewBlockAware(sim, nil, BlockAwareConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ba.Start()
	// Stop all mining: every node goes stale and the monitor must trigger.
	sim.StopMining()
	sim.Run(sim.Engine.Now() + 2*time.Hour)
	if ba.Triggers == 0 {
		t.Error("no staleness triggers despite halted mining")
	}
	// No one has a better tip, so no rescues.
	if ba.Rescues != 0 {
		t.Errorf("rescues = %d with a fully synced, halted network", ba.Rescues)
	}
	ba.Stop()
}

func paperPools(t *testing.T) []mining.Pool {
	t.Helper()
	return dataset.TableIV()
}

func TestMinASesToIsolateTableIV(t *testing.T) {
	cost, err := MinASesToIsolate(paperPools(t), 0.65)
	if err != nil {
		t.Fatal(err)
	}
	if !cost.Feasible {
		t.Fatal("isolating 65% infeasible on paper roster")
	}
	// Table IV: 3 ASes carry 65.7% of hash rate.
	if cost.ASesHijacked != 3 {
		t.Errorf("ASes hijacked = %d, want 3", cost.ASesHijacked)
	}
	// 34.4% is available from AS45102 alone.
	one, err := MinASesToIsolate(paperPools(t), 0.34)
	if err != nil {
		t.Fatal(err)
	}
	if one.ASesHijacked != 1 {
		t.Errorf("ASes for 34%% = %d, want 1", one.ASesHijacked)
	}
}

func TestMinASesToIsolateInfeasible(t *testing.T) {
	cost, err := MinASesToIsolate(paperPools(t), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Feasible {
		t.Error("99% should be infeasible (roster only sums to 65.7%)")
	}
	if _, err := MinASesToIsolate(paperPools(t), 0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestSpreadStratumRaisesCost(t *testing.T) {
	candidates := []topology.ASN{
		24940, 16276, 37963, 16509, 14061, 7922, 4134, 51167, 45102, 58563,
		60001, 60002, 60003, 60004, 60005,
	}
	spread, err := SpreadStratum(paperPools(t), candidates, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range spread {
		if len(p.StratumASes) != 4 {
			t.Fatalf("pool %s has %d stratum ASes", p.Name, len(p.StratumASes))
		}
	}
	benefit, err := EvaluateDispersal(paperPools(t), spread, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	if !benefit.Before.Feasible {
		t.Fatal("baseline attack infeasible")
	}
	if benefit.After.Feasible && benefit.After.ASesHijacked <= benefit.Before.ASesHijacked {
		t.Errorf("dispersal did not raise cost: %d -> %d ASes",
			benefit.Before.ASesHijacked, benefit.After.ASesHijacked)
	}
}

func TestSpreadStratumValidation(t *testing.T) {
	if _, err := SpreadStratum(paperPools(t), []topology.ASN{1}, 2); err == nil {
		t.Error("too few candidates accepted")
	}
	if _, err := SpreadStratum(paperPools(t), []topology.ASN{1, 2}, 0); err == nil {
		t.Error("zero replicas accepted")
	}
}

func TestRouteGuardDetectsAndPurges(t *testing.T) {
	if _, err := NewRouteGuard(nil); err == nil {
		t.Error("nil topology accepted")
	}
	pop, err := dataset.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := NewRouteGuard(pop.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if found := guard.Audit(); len(found) != 0 {
		t.Fatalf("clean table flagged %d routes", len(found))
	}

	// Launch a hijack, then detect and purge it.
	sp, err := attack.NewSpatial(pop)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sp.PlanAS(666, 24940, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Execute(plan, nil); err != nil {
		t.Fatal(err)
	}
	suspicions := guard.Audit()
	if len(suspicions) == 0 {
		t.Fatal("hijack not detected")
	}
	for _, s := range suspicions {
		if s.Origin != 666 || s.Legit != 24940 {
			t.Fatalf("suspicion %+v", s)
		}
	}
	purged, err := guard.PurgeSuspicious(suspicions)
	if err != nil {
		t.Fatal(err)
	}
	if purged == 0 {
		t.Fatal("nothing purged")
	}
	if again := guard.Audit(); len(again) != 0 {
		t.Errorf("%d suspicions remain after purge", len(again))
	}
	// Victim traffic is restored.
	for _, n := range pop.NodesInAS(24940)[:5] {
		if got, _ := pop.Topo.Resolve(n.IP); got != 24940 {
			t.Fatalf("node still hijacked: AS%d", got)
		}
	}
}
