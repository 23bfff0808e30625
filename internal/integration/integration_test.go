// Package integration exercises full pipelines across the library: dataset
// generation → attack planning → execution → countermeasure,
// the way a user of the public API strings the pieces together.
package integration

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/spv"
	"repro/internal/stats"
	"repro/internal/vulndb"
)

// TestSpatialPipeline: generate the population, plan the cheapest 95%
// hijack of the top AS from Figure 4's analysis, execute it against the
// live route table, confirm capture, then let the route guard detect and
// undo it.
func TestSpatialPipeline(t *testing.T) {
	pop, err := dataset.Generate(101)
	if err != nil {
		t.Fatal(err)
	}
	// Analysis: pick the cheapest of the paper's five ASes per node captured.
	bestAS := core.Figure4ASes()[0]
	bestCost := 1 << 30
	for _, asn := range core.Figure4ASes() {
		k, err := measure.PrefixesToIsolate(pop, asn, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if k < bestCost {
			bestCost, bestAS = k, asn
		}
	}
	if bestAS != 24940 {
		t.Errorf("cheapest 95%% target = AS%d, want AS24940 (Figure 4)", bestAS)
	}

	// Plan and execute.
	sp, err := attack.NewSpatial(pop)
	if err != nil {
		t.Fatal(err)
	}
	pools, err := mining.NewPoolSet(dataset.TableIV())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sp.PlanAS(666, bestAS, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Execute(plan, pools)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapturedNodes < 900 {
		t.Fatalf("captured %d nodes", res.CapturedNodes)
	}

	// Defense: the route guard detects and purges; routing heals.
	guard, err := defense.NewRouteGuard(pop.Topo)
	if err != nil {
		t.Fatal(err)
	}
	suspicions := guard.Audit()
	if len(suspicions) != plan.HijackCount {
		t.Errorf("audit flagged %d prefixes, plan hijacked %d", len(suspicions), plan.HijackCount)
	}
	if _, err := guard.PurgeSuspicious(suspicions); err != nil {
		t.Fatal(err)
	}
	for _, n := range pop.NodesInAS(bestAS)[:20] {
		if got, _ := pop.Topo.Resolve(n.IP); got != bestAS {
			t.Fatalf("routing not healed: %v -> AS%d", n.IP, got)
		}
	}
}

// TestTemporalPipeline: on a live simulation the attacker takes up to twelve
// up nodes as victims (attack.FindVictims); the attack captures at least
// half of them; SPV wallets bound to a victim inherit the counterfeit
// chain; and healing without BlockAware recovers at least three quarters
// of them.
func TestTemporalPipeline(t *testing.T) {
	study, err := core.New(103, core.WithNetworkNodes(100))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := study.NewSimFromPopulation(100, 103)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := spv.NewFleet(sim, 1500, stats.NewRand(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	sim.Run(6 * time.Hour)

	victims := attack.FindVictims(sim, 0, 12)

	res, err := attack.ExecuteTemporalOn(sim, attack.TemporalConfig{
		AttackerShare: 0.30,
		HoldFor:       8 * time.Hour,
		HealFor:       0,
		TrackPayment:  true,
	}, victims)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapturedAtRelease < len(victims)/2 {
		t.Fatalf("captured %d of %d", res.CapturedAtRelease, len(victims))
	}
	// SPV amplification: wallets behind captured nodes see the counterfeit
	// chain (skip if no wallet happened to bind to a victim).
	exp := fleet.Exposure()
	victimWallets := 0
	for _, v := range victims {
		victimWallets += fleet.ClientsOf(v)
	}
	if victimWallets > 0 && exp.OnCounterfeit == 0 {
		t.Error("no wallet inherited the counterfeit chain despite bound victims")
	}

	// Heal and verify recovery.
	sim.Run(sim.Engine.Now() + 4*time.Hour)
	recovered := 0
	for _, v := range victims {
		if !sim.Network.Nodes[v].Tree.Tip().Counterfeit {
			recovered++
		}
	}
	if recovered < len(victims)*3/4 {
		t.Errorf("recovered %d of %d after heal", recovered, len(victims))
	}
}

// TestSpatioTemporalPipeline: trace → moment → plan → combined execution.
func TestSpatioTemporalPipeline(t *testing.T) {
	study, err := core.New(107, core.WithNetworkNodes(90))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := study.Pop.RunTrace(dataset.TraceConfig{
		Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute,
		Seed: 9, TrackSyncedByAS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	moment, err := attack.FindBestMoment(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := attack.PlanSpatioTemporal(study.Pop, moment, attack.CapabilityBoth, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Coverage < 0.5 {
		t.Errorf("combined coverage %.2f at the weakest moment", plan.Coverage)
	}

	sim, err := study.NewSimFromPopulation(90, 107)
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	sim.Run(5 * time.Hour)
	candidates := attack.FindVictims(sim, 0, 0)
	res, err := attack.ExecuteSpatioTemporal(sim, attack.TemporalConfig{
		AttackerShare: 0.30, HoldFor: 6 * time.Hour, HealFor: 3 * time.Hour,
	}, candidates[:8], candidates[8:20])
	if err != nil {
		t.Fatal(err)
	}
	if res.SpatialIsolated == 0 || res.Temporal.CapturedAtRelease == 0 {
		t.Errorf("combined attack ineffective: %+v", res)
	}
}

// TestLogicalPipeline: version census → CVE join → crash exploit →
// network impact on a live simulation carrying real version profiles.
func TestLogicalPipeline(t *testing.T) {
	study, err := core.New(109, core.WithNetworkNodes(120))
	if err != nil {
		t.Fatal(err)
	}
	db := vulndb.New()
	impact, err := attack.SimulateCrashExploit(study.Pop, db, "CVE-2018-17144")
	if err != nil {
		t.Fatal(err)
	}
	if impact.DownShare < 0.5 {
		t.Fatalf("crash exploit down share %.2f", impact.DownShare)
	}

	// Apply the exploit to a live simulation: nodes running affected
	// versions crash; the survivors keep the chain moving, degraded.
	sim, err := study.NewSimFromPopulation(120, 109)
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	sim.Run(2 * time.Hour)
	downed := 0
	cve, _ := db.Lookup("CVE-2018-17144")
	for _, node := range sim.Network.Nodes {
		v, err := vulndb.ParseVersion(node.Profile.Version)
		if err != nil {
			continue
		}
		if cve.Affects(v) && !sim.IsGateway(node.ID) {
			node.Up = false
			downed++
		}
	}
	if downed < 40 {
		t.Fatalf("exploit downed only %d of 120 simulated nodes", downed)
	}
	before := sim.BlocksProduced()
	sim.Run(sim.Engine.Now() + 4*time.Hour)
	if sim.BlocksProduced() == before {
		t.Error("surviving network stopped producing blocks")
	}
	// Survivors still propagate.
	lag := sim.LagHistogram()
	if lag.Total() != 120-downed {
		t.Errorf("lag histogram total %d, want %d survivors", lag.Total(), 120-downed)
	}
	if frac := float64(lag.Synced) / float64(lag.Total()); frac < 0.6 {
		t.Errorf("survivor synced fraction %.2f", frac)
	}
}

// TestDefenseMatrix: each §VI countermeasure moves its attack's outcome in
// the right direction, measured end to end.
func TestDefenseMatrix(t *testing.T) {
	// Stratum dispersal raises miner-isolation cost.
	pools := dataset.TableIV()
	candidates := core.Figure4ASes()
	candidates = append(candidates, 7922, 4134, 51167, 45102, 58563, 60000, 60001, 60002)
	spread, err := defense.SpreadStratum(pools, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}
	benefit, err := defense.EvaluateDispersal(pools, spread, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if benefit.After.Feasible && benefit.After.ASesHijacked <= benefit.Before.ASesHijacked {
		t.Errorf("dispersal did not raise cost: %+v", benefit)
	}
}
