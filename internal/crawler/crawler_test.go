package crawler

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/p2p"
)

func testSim(t *testing.T) *netsim.Simulation {
	t.Helper()
	sim, err := netsim.FromConfig(netsim.Config{
		Nodes: 40, Seed: 3,
		Gossip: p2p.Config{FailureRate: 0.05, MeanRelayDelay: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, time.Minute); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := New(testSim(t), 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestPeriodicCapture(t *testing.T) {
	sim := testSim(t)
	c, err := New(sim, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	c.Start()
	sim.Run(3 * time.Hour)
	c.Stop()
	snaps := c.Snapshots()
	if len(snaps) != 18 {
		t.Fatalf("snapshots = %d, want 18", len(snaps))
	}
	for i, s := range snaps {
		if len(s.Nodes) != 40 {
			t.Fatalf("snapshot %d has %d nodes", i, len(s.Nodes))
		}
		if i > 0 && s.T <= snaps[i-1].T {
			t.Fatal("timestamps not increasing")
		}
		if i > 0 && s.TipHeight < snaps[i-1].TipHeight {
			t.Fatal("tip height decreased")
		}
		for _, n := range s.Nodes {
			if n.Behind < 0 || n.Height > s.TipHeight {
				t.Fatalf("inconsistent observation %+v vs tip %d", n, s.TipHeight)
			}
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	sim := testSim(t)
	c, _ := New(sim, 10*time.Minute)
	sim.StartMining()
	c.Start()
	sim.Run(time.Hour)
	snaps := c.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snaps) {
		t.Fatalf("round trip: %d vs %d", len(got), len(snaps))
	}
	for i := range got {
		if got[i].T != snaps[i].T || got[i].TipHeight != snaps[i].TipHeight {
			t.Fatalf("snapshot %d header mismatch", i)
		}
		if len(got[i].Nodes) != len(snaps[i].Nodes) {
			t.Fatalf("snapshot %d node count mismatch", i)
		}
		if got[i].Nodes[3] != snaps[i].Nodes[3] {
			t.Fatalf("snapshot %d node mismatch", i)
		}
	}
}

func TestReadJSONLGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	got, err := ReadJSONL(bytes.NewBuffer(nil))
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: %v, %d", err, len(got))
	}
}
