package attack

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/p2p"
)

// warmSim builds a small network, mines some history, and leaves the tail
// of the network slightly behind by using a lossy, slow gossip config.
func warmSim(t *testing.T, nodes int, seed int64) *netsim.Simulation {
	t.Helper()
	sim, err := netsim.FromConfig(netsim.Config{
		Nodes:  nodes,
		Seed:   seed,
		Gossip: p2p.Config{FailureRate: 0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	sim.Run(6 * time.Hour)
	return sim
}

func TestTemporalConfigValidate(t *testing.T) {
	valid := TemporalConfig{AttackerShare: 0.3, MinLag: 1, HoldFor: time.Hour, HealFor: time.Hour}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*TemporalConfig)
	}{
		{"zero share", func(c *TemporalConfig) { c.AttackerShare = 0 }},
		{"share 1", func(c *TemporalConfig) { c.AttackerShare = 1 }},
		{"negative lag", func(c *TemporalConfig) { c.MinLag = -1 }},
		{"zero hold", func(c *TemporalConfig) { c.HoldFor = 0 }},
		{"negative heal", func(c *TemporalConfig) { c.HealFor = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestFindVictims(t *testing.T) {
	sim := warmSim(t, 60, 5)
	all := FindVictims(sim, 0, 0)
	// Every up node except pool gateways (miners are not temporal prey).
	want := 60 - len(sim.Gateways())
	if len(all) != want {
		t.Errorf("minLag=0 selected %d nodes, want %d", len(all), want)
	}
	capped := FindVictims(sim, 0, 10)
	if len(capped) != 10 {
		t.Errorf("cap ignored: %d", len(capped))
	}
	deep := FindVictims(sim, 1000, 0)
	if len(deep) != 0 {
		t.Errorf("absurd lag matched %d nodes", len(deep))
	}
}

func TestExecuteTemporalCapturesAndHeals(t *testing.T) {
	sim := warmSim(t, 80, 11)
	// Explicit victim set: 16 nodes, regardless of current lag.
	victims := FindVictims(sim, 0, 16)
	cfg := TemporalConfig{
		AttackerShare: 0.30,
		MinLag:        0,
		HoldFor:       8 * time.Hour,
		HealFor:       4 * time.Hour,
	}
	res, err := ExecuteTemporalOn(sim, cfg, victims)
	if err != nil {
		t.Fatal(err)
	}
	if res.CounterfeitBlocks == 0 {
		t.Fatal("attacker mined nothing over 8 hours at 30% share")
	}
	// 30% share over 8h: ~14 counterfeit blocks expected.
	if res.CounterfeitBlocks < 4 || res.CounterfeitBlocks > 40 {
		t.Errorf("counterfeit blocks = %d, want ~14", res.CounterfeitBlocks)
	}
	// The soft fork must capture a majority of the partitioned set.
	if res.CapturedAtRelease < len(victims)/2 {
		t.Errorf("captured %d of %d victims at release", res.CapturedAtRelease, len(victims))
	}
	if res.MaxForkDepth == 0 {
		t.Error("no fork depth recorded despite capture")
	}
	// After healing, the longest (honest) chain must win: most victims
	// recover and their counterfeit-chain transactions are reversed.
	if res.RecoveredAfterHeal < len(victims)*3/4 {
		t.Errorf("recovered %d of %d after heal", res.RecoveredAfterHeal, len(victims))
	}
	if res.CapturedAtRelease > 0 && res.ReversedTxs == 0 {
		t.Error("capture with no reversed transactions after heal")
	}
	// Honest production during hold reflects the reduced (70%) share:
	// expect ~5.6 blocks per hour * 8 = ~34; loose band.
	if res.HonestBlocksDuringHold < 15 || res.HonestBlocksDuringHold > 60 {
		t.Errorf("honest blocks during hold = %d", res.HonestBlocksDuringHold)
	}
}

func TestExecuteTemporalEmptyVictims(t *testing.T) {
	sim := warmSim(t, 30, 2)
	cfg := TemporalConfig{AttackerShare: 0.3, HoldFor: time.Hour, HealFor: time.Hour}
	if _, err := ExecuteTemporalOn(sim, cfg, nil); err == nil {
		t.Error("empty victim set accepted")
	}
	if _, err := ExecuteTemporal(sim, TemporalConfig{
		AttackerShare: 0.3, MinLag: 10000, HoldFor: time.Hour,
	}); err == nil {
		t.Error("no-victim criterion accepted")
	}
}

func TestTemporalPartitionBlocksCrossTraffic(t *testing.T) {
	sim := warmSim(t, 60, 21)
	victims := FindVictims(sim, 0, 12)
	isVictim := map[p2p.NodeID]bool{}
	for _, v := range victims {
		isVictim[v] = true
	}
	heightBefore := map[p2p.NodeID]int{}
	for _, v := range victims {
		heightBefore[v] = sim.Network.Nodes[v].Height()
	}
	cfg := TemporalConfig{AttackerShare: 0.30, HoldFor: 6 * time.Hour, HealFor: 3 * time.Hour}
	res, err := ExecuteTemporalOn(sim, cfg, victims)
	if err != nil {
		t.Fatal(err)
	}
	// During hold the honest chain kept growing; victims who ended captured
	// are behind the network reference even though their local chain moved.
	ref := sim.Network.RefHeight()
	for _, v := range victims {
		node := sim.Network.Nodes[v]
		if node.Height() < heightBefore[v] {
			t.Fatalf("victim %d lost height", v)
		}
		_ = ref
	}
	if res.HonestBlocksDuringHold == 0 {
		t.Error("honest network halted during partition")
	}
}

func TestTemporalDeterminism(t *testing.T) {
	run := func() *TemporalResult {
		sim := warmSim(t, 50, 31)
		victims := FindVictims(sim, 0, 10)
		cfg := TemporalConfig{AttackerShare: 0.3, HoldFor: 4 * time.Hour, HealFor: 2 * time.Hour}
		res, err := ExecuteTemporalOn(sim, cfg, victims)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CounterfeitBlocks != b.CounterfeitBlocks ||
		a.CapturedAtRelease != b.CapturedAtRelease ||
		a.ReversedTxs != b.ReversedTxs {
		t.Errorf("seeded runs diverged: %+v vs %+v", a, b)
	}
}
