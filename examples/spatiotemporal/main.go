// Spatio-temporal planner: the §V-C case study. Watch a day of network
// telemetry, find the moment the synced population is smallest, and build
// capability-adjusted attack plans — a routing-only AS, a mining pool, and
// the cloud provider that can do both — then execute the combined attack on
// a live simulation.
//
//	go run ./examples/spatiotemporal
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the walkthrough to w.
func run(w io.Writer) error {
	study, err := core.New(11)
	if err != nil {
		return err
	}

	// One day of 10-minute samples with per-AS sync tracking — the
	// adversarial view of Figures 6(b) and 8.
	tr, err := study.Pop.RunTrace(dataset.TraceConfig{
		Duration:        24 * time.Hour,
		SampleEvery:     10 * time.Minute,
		Seed:            99,
		TrackSyncedByAS: true,
	})
	if err != nil {
		return err
	}
	moment, err := attack.FindBestMoment(tr, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "best attack window at t=%v: %d synced vs %d behind\n",
		moment.Time, moment.Synced, moment.Behind)
	fmt.Fprintln(w, "top ASes hosting the synced (green) nodes at that moment:")
	for _, row := range moment.TopSyncedASes {
		fmt.Fprintf(w, "  AS%-6d %4d synced nodes (%.1f%%)\n", row.ASN, row.Nodes, row.Fraction*100)
	}

	fmt.Fprintln(w, "\ncapability-adjusted plans:")
	for _, cap := range []attack.Capability{
		attack.CapabilityRouting, attack.CapabilityMining, attack.CapabilityBoth,
	} {
		plan, err := attack.PlanSpatioTemporal(study.Pop, moment, cap, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-15v spatial: %d ASes / %d prefixes -> %d nodes; temporal: %d victims; coverage %.1f%%\n",
			cap, len(plan.SpatialASes), plan.SpatialPrefixes, plan.SpatialNodes,
			plan.TemporalVictims, plan.Coverage*100)
	}

	// Execute the cloud-provider (both-capability) attack on a live sim.
	sim, err := study.NewSimFromPopulation(160, 11)
	if err != nil {
		return err
	}
	sim.StartMining()
	sim.Run(6 * time.Hour)
	candidates := attack.FindVictims(sim, 0, 0)
	spatial := candidates[:12]    // synced nodes: blackholed by BGP
	temporal := candidates[12:30] // lagging nodes: fed counterfeit blocks
	res, err := attack.ExecuteSpatioTemporal(sim, attack.TemporalConfig{
		AttackerShare: 0.30,
		HoldFor:       8 * time.Hour,
		HealFor:       4 * time.Hour,
	}, spatial, temporal)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncombined execution: %d/%d spatially isolated; %d/%d temporally captured; %d txs reversed\n",
		res.SpatialIsolated, len(spatial),
		res.Temporal.CapturedAtRelease, len(temporal), res.Temporal.ReversedTxs)
	return nil
}
