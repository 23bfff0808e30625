package integration

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/gridsim"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/p2p"
)

// The structure-of-arrays rewrite of the gridsim and p2p hot paths
// (DESIGN.md §12) promises byte-identity: the same RNG draw order, the same
// study output, the same obs counters, and the same trace events as the
// pre-rewrite implementation. The goldens in this file were generated from
// the pre-rewrite code (set UPDATE_SOA_GOLDEN=1 to regenerate, which is
// only legitimate when the simulation semantics deliberately change).
//
// TestExperimentAllGolden already pins the full study output at workers 1
// and 8; the tests here pin the two surfaces it does not cover — the raw
// obs event trace of both hot substrates, and the merged ensemble metrics
// at worker counts 1 and 8.

// soaTraceWorkload runs one observed grid simulation and one observed
// gossip simulation and renders their traces plus metrics into a single
// deterministic byte stream.
func soaTraceWorkload(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer

	gridObs := obs.New(0)
	g, err := gridsim.New(1,
		gridsim.WithSize(25), gridsim.WithSpanRatio(2.0), gridsim.WithFailureRate(0.10),
		gridsim.WithAttacker(0.30, 7, 7), gridsim.WithBoundary(5, 0, 0),
		gridsim.WithObserver(gridObs))
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(g.StepsPerBlock() * 40)
	fmt.Fprintf(&buf, "gridsim: step=%d blocks=%d forks=%d counterfeit=%d\n",
		g.Step(), g.BlocksMined(), g.ForksEmerged(), g.CounterfeitCells())
	if err := gridObs.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(gridObs.Registry().Snapshot().Render())

	netObs := obs.New(0)
	sim, err := netsim.FromConfig(netsim.Config{
		Nodes: 150, Seed: 7,
		Gossip: p2p.Config{FailureRate: 0.10, Obs: netObs},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.StartMining()
	sim.Run(8 * time.Hour)
	lb := sim.LagHistogram()
	fmt.Fprintf(&buf, "netsim: blocks=%d synced=%d behind=%d\n",
		sim.BlocksProduced(), lb.Synced, lb.Total()-lb.Synced)
	if err := netObs.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(netObs.Registry().Snapshot().Render())
	return buf.Bytes()
}

// soaMetricsWorkload runs the grid-trial ensemble with a merged metrics
// registry at the given worker count and renders the result.
func soaMetricsWorkload(t *testing.T, workers int) []byte {
	t.Helper()
	o := obs.NewMetricsOnly()
	cfg := gridsim.NewConfig(1,
		gridsim.WithSize(25), gridsim.WithSpanRatio(2.0), gridsim.WithFailureRate(0.10),
		gridsim.WithAttacker(0.30, 7, 7), gridsim.WithBoundary(5, 0, 0),
		gridsim.WithObserver(o))
	res, err := gridsim.RunTrials(cfg, gridsim.TrialsConfig{
		Trials: 8, Blocks: 10, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "trials: forkrate=%.6f counterfeit=%.6f stale=%.6f\n",
		res.ForkRate, res.MeanCounterfeitShare, res.MeanStaleShare)
	for _, tr := range res.Trials {
		fmt.Fprintf(&buf, "trial seed=%d forks=%d counterfeit=%d stale=%d height=%d\n",
			tr.Seed, tr.Forks, tr.CounterfeitCells, tr.StaleCells, tr.MaxHeight)
	}
	buf.WriteString(o.Metrics.Snapshot().Render())
	return buf.Bytes()
}

// maybeUpdate writes the golden when UPDATE_SOA_GOLDEN=1 and always returns
// its current contents.
func maybeUpdate(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if os.Getenv("UPDATE_SOA_GOLDEN") == "1" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSoATraceGolden pins the raw event traces and metrics of both hot
// substrates to the pre-rewrite golden.
func TestSoATraceGolden(t *testing.T) {
	got := soaTraceWorkload(t)
	want := maybeUpdate(t, "testdata/soa_trace_seed1.golden", got)
	if !bytes.Equal(got, want) {
		t.Errorf("trace output diverged from pre-rewrite golden (%d bytes vs %d)", len(got), len(want))
	}
}

// TestSoAMetricsGolden pins the merged trial-ensemble metrics to the
// pre-rewrite golden at workers 1 and 8 — both the per-trial results and
// the merge order of the ensemble registry must survive the SoA rewrite.
func TestSoAMetricsGolden(t *testing.T) {
	want := maybeUpdate(t, "testdata/soa_metrics_seed1.golden", soaMetricsWorkload(t, 1))
	for _, workers := range []int{1, 8} {
		got := soaMetricsWorkload(t, workers)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: ensemble metrics diverged from pre-rewrite golden (%d bytes vs %d)",
				workers, len(got), len(want))
		}
	}
}
