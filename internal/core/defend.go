package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/topology"
)

// The §VI countermeasure demos, the `defend` commands of the command table.
// (The time.Duration literals below are simulated-time spans fed to the
// event engine, not wall-clock reads.)

func placementDemo(study *Study, w io.Writer) error {
	fmt.Fprintln(w, "Exchange full-node placement: co-location vs dispersal (§VI)")
	candidates := Figure4ASes()
	cost, err := defense.CompareColocation(study.Pop, 24940, candidates, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  5 nodes co-located in AS24940: %d hijack incident blinds the operator\n", cost.NaiveIncidents)
	fmt.Fprintf(w, "  5 nodes dispersed across the top-5 ASes: %d separate incidents needed (%d in flat, conspicuous ASes)\n",
		cost.DispersedIncidents, cost.DispersedFlatHosts)
	return nil
}

func blockAwareDemo(study *Study, w io.Writer) error {
	fmt.Fprintln(w, "BlockAware: tc - tl > 600s self-check vs the temporal attack")
	for _, protect := range []bool{false, true} {
		sim, err := study.NewSimFromPopulation(study.Opts.NetworkNodes, study.Seed()+3)
		if err != nil {
			return err
		}
		sim.StartMining()
		sim.Run(6 * time.Hour)
		victims := attack.FindVictims(sim, 0, study.Opts.NetworkNodes/8)
		if protect {
			ba, err := defense.NewBlockAware(sim, victims, defense.BlockAwareConfig{Seed: 7})
			if err != nil {
				return err
			}
			ba.Start()
			defer ba.Stop()
		}
		res, err := attack.ExecuteTemporalOn(sim, attack.TemporalConfig{
			AttackerShare: 0.30, HoldFor: 8 * time.Hour, HealFor: 2 * time.Hour,
		}, victims)
		if err != nil {
			return err
		}
		label := "without BlockAware"
		if protect {
			label = "with BlockAware   "
		}
		fmt.Fprintf(w, "  %s: %d/%d victims captured at release, %d txs reversed\n",
			label, res.CapturedAtRelease, len(victims), res.ReversedTxs)
	}
	return nil
}

func stratumDemo(_ *Study, w io.Writer) error {
	fmt.Fprintln(w, "Stratum dispersal: attack cost to isolate 60% of hash rate")
	pools := dataset.TableIV()
	candidates := []topology.ASN{
		24940, 16276, 37963, 16509, 14061, 7922, 4134, 51167, 45102, 58563,
		60000, 60001, 60002, 60003, 60004,
	}
	spread, err := defense.SpreadStratum(pools, candidates, 4)
	if err != nil {
		return err
	}
	benefit, err := defense.EvaluateDispersal(pools, spread, 0.60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  before: %d AS hijacks isolate %.1f%%\n",
		benefit.Before.ASesHijacked, benefit.Before.ShareIsolated*100)
	if benefit.After.Feasible {
		fmt.Fprintf(w, "  after 4-way dispersal: %d AS hijacks needed\n", benefit.After.ASesHijacked)
	} else {
		fmt.Fprintf(w, "  after 4-way dispersal: infeasible even hijacking all %d candidate ASes\n", len(candidates))
	}
	return nil
}

func routeGuardDemo(study *Study, w io.Writer) error {
	fmt.Fprintln(w, "RouteGuard: bogus route purging after a hijack of AS24940")
	guard, err := defense.NewRouteGuard(study.Pop.Topo)
	if err != nil {
		return err
	}
	sp, err := attack.NewSpatial(study.Pop)
	if err != nil {
		return err
	}
	plan, err := sp.PlanAS(666, 24940, 0.95)
	if err != nil {
		return err
	}
	if _, err := sp.Execute(plan, nil); err != nil {
		return err
	}
	suspicions := guard.Audit()
	fmt.Fprintf(w, "  audit flags %d diverted prefixes\n", len(suspicions))
	purged, err := guard.PurgeSuspicious(suspicions)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  purged %d bogus announcements; re-audit flags %d\n", purged, len(guard.Audit()))
	return nil
}
