package attack

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/mining"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/vulndb"
)

// The seven registered scenarios. Each reproduces the exact sub-seeds,
// parameters, and summary text of the pre-registry CLI implementations, so
// `partition attack <name>` output is byte-identical across the redesign.

// --- temporal ---------------------------------------------------------------

// Figure5 runs the paper's temporal attack demo (§V-B, Figure 5) on sim, a
// freshly built live network: six hours of mining, then the first n/8 up,
// non-gateway nodes are cut off from the rest and fed a counterfeit branch
// mined at 30% of the hash rate for eight hours, and the partition heals
// for four. It returns the outcome and its four-line text, which
// `experiment figure5` and `attack temporal` both print.
func Figure5(sim *netsim.Simulation) (*TemporalResult, string, error) {
	sim.StartMining()
	sim.Run(6 * time.Hour)
	res, err := ExecuteTemporal(sim, TemporalConfig{
		AttackerShare: 0.30,
		MaxVictims:    len(sim.Network.Nodes) / 8,
		HoldFor:       8 * time.Hour,
		HealFor:       4 * time.Hour,
	})
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	b.WriteString("Figure 5 (attack demo): temporal partitioning\n")
	fmt.Fprintf(&b, "victims isolated: %d; counterfeit blocks fed: %d\n", len(res.Victims), res.CounterfeitBlocks)
	fmt.Fprintf(&b, "captured at release: %d; max fork depth: %d\n", res.CapturedAtRelease, res.MaxForkDepth)
	fmt.Fprintf(&b, "recovered after heal: %d; transactions reversed: %d\n", res.RecoveredAfterHeal, res.ReversedTxs)
	return res, b.String(), nil
}

// runTemporal is `attack temporal`: the Figure 5 run on env's network.
func runTemporal(env Env) (string, int64, error) {
	sim, err := env.newSim(env.Seed)
	if err != nil {
		return "", 0, err
	}
	res, text, err := Figure5(sim)
	if err != nil {
		return "", 0, err
	}
	reg := env.Obs.Registry()
	reg.Counter("plan.temporal.victims").Add(uint64(len(res.Victims)))
	reg.Counter("plan.temporal.captured_at_release").Add(uint64(res.CapturedAtRelease))
	reg.Counter("plan.temporal.max_fork_depth").Add(uint64(res.MaxForkDepth))
	reg.Counter("plan.temporal.reversed_txs").Add(uint64(res.ReversedTxs))
	return text, int64(sim.Engine.Now()), nil
}

// --- doublespend ------------------------------------------------------------

// runDoubleSpend plants a payment in the first counterfeit block of a
// temporal partition and checks the merchant-visible confirmations reverse
// on heal.
func runDoubleSpend(env Env) (string, int64, error) {
	sim, err := env.newSim(env.Seed + 5)
	if err != nil {
		return "", 0, err
	}
	sim.StartMining()
	sim.Run(6 * time.Hour)
	res, err := ExecuteTemporal(sim, TemporalConfig{
		AttackerShare: 0.30,
		MaxVictims:    len(sim.Network.Nodes) / 10,
		HoldFor:       8 * time.Hour,
		HealFor:       4 * time.Hour,
		TrackPayment:  true,
	})
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	b.WriteString("Double-spend through a temporal partition\n")
	fmt.Fprintf(&b, "  payment tx %d planted in the first counterfeit block\n", res.PaymentTx)
	fmt.Fprintf(&b, "  merchant saw %d confirmations during the %d-block hold\n",
		res.MerchantConfirmations, res.CounterfeitBlocks)
	fmt.Fprintf(&b, "  payment reversed on heal: %v (double-spend %s)\n",
		res.PaymentReversed, outcome(res.PaymentReversed && res.MerchantConfirmations >= 2))
	reg := env.Obs.Registry()
	reg.Counter("plan.doublespend.merchant_confirmations").Add(uint64(res.MerchantConfirmations))
	reg.Counter("plan.doublespend.counterfeit_blocks").Add(uint64(res.CounterfeitBlocks))
	if res.PaymentReversed {
		reg.Counter("plan.doublespend.payment_reversed").Inc()
	}
	return b.String(), int64(sim.Engine.Now()), nil
}

func outcome(ok bool) string {
	if ok {
		return "SUCCEEDED"
	}
	return "failed"
}

// --- majority51 -------------------------------------------------------------

// runMajority51 races a private chain after spatially isolating Table IV's
// mining backbone.
func runMajority51(env Env) (string, int64, error) {
	sim, err := env.newSim(env.Seed + 6)
	if err != nil {
		return "", 0, err
	}
	sim.StartMining()
	sim.Run(6 * time.Hour)
	res, err := ExecuteMajority51(sim, MajorityConfig{
		AttackerShare: 0.30,
		IsolatedShare: 0.657, // the three hijacked ASes of Table IV
		MineFor:       24 * time.Hour,
		Seed:          env.Seed,
	})
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	b.WriteString("51% attack after spatially isolating Table IV's mining backbone\n")
	fmt.Fprintf(&b, "  effective race: attacker 30.0%% vs honest %.1f%%\n", res.HonestShare*100)
	fmt.Fprintf(&b, "  private chain: %d blocks vs public %d\n", res.AttackerBlocks, res.HonestBlocks)
	fmt.Fprintf(&b, "  attacker wins: %v; history rewritten %d blocks deep; adopted by %d nodes\n",
		res.AttackerWins, res.ReorgDepth, res.AdoptedBy)
	reg := env.Obs.Registry()
	reg.Counter("plan.majority51.attacker_blocks").Add(uint64(res.AttackerBlocks))
	reg.Counter("plan.majority51.honest_blocks").Add(uint64(res.HonestBlocks))
	reg.Counter("plan.majority51.reorg_depth").Add(uint64(res.ReorgDepth))
	reg.Counter("plan.majority51.adopted_by").Add(uint64(res.AdoptedBy))
	if res.AttackerWins {
		reg.Counter("plan.majority51.attacker_wins").Inc()
	}
	return b.String(), int64(sim.Engine.Now()), nil
}

// --- cascade ----------------------------------------------------------------

// runCascade cuts increasing fractions of a victim AS (border nodes
// first) and measures how far the surviving interior falls behind. It
// builds its own clustered-topology simulations.
func runCascade(env Env) (string, int64, error) {
	// The cascade precondition (§V-A implications): within the victim AS,
	// interior nodes peer only among themselves and with a few border
	// nodes that hold the external connectivity. Hijacking the prefixes
	// that cover the border nodes then starves the whole AS.
	const (
		total    = 100
		asSize   = 30 // victim AS nodes: 0..29
		borders  = 6  // nodes 0..5 carry the AS's external links
		outPeers = 8
	)
	build := func() (*netsim.Simulation, error) {
		rng := stats.NewRand(env.Seed + 7)
		nodes := make([]*p2p.Node, total)
		outbound := make([][]p2p.NodeID, total)
		for i := range nodes {
			asn := topology.ASN(24940)
			if i >= asSize {
				asn = topology.ASN(60000)
			}
			nodes[i] = p2p.NewNode(p2p.NodeID(i), p2p.Profile{ASN: asn})
			for len(outbound[i]) < outPeers {
				var pr int
				switch {
				case i < borders: // border: half internal, half external
					if len(outbound[i])%2 == 0 {
						pr = rng.Intn(asSize)
					} else {
						pr = asSize + rng.Intn(total-asSize)
					}
				case i < asSize: // interior: AS-only
					pr = rng.Intn(asSize)
				default: // outside world: everyone else
					pr = asSize + rng.Intn(total-asSize)
				}
				if pr == i {
					continue
				}
				outbound[i] = append(outbound[i], p2p.NodeID(pr))
			}
		}
		return netsim.FromConfig(netsim.Config{
			Population:   nodes,
			Outbound:     outbound,
			Seed:         env.Seed + 7,
			GatewayNodes: []p2p.NodeID{total - 1}, // honest blocks enter outside
			Faults:       env.Faults,
			Gossip:       p2p.Config{FailureRate: 0.10, Obs: env.Obs},
		})
	}
	var b strings.Builder
	b.WriteString("Eclipse cascade: partial AS cut, interior nodes relaying via border nodes\n")
	reg := env.Obs.Registry()
	var tick int64
	for _, frac := range []float64{0.1, 0.2, 0.5} {
		sim, err := build()
		if err != nil {
			return "", 0, err
		}
		sim.StartMining()
		sim.Run(4 * time.Hour)
		res, err := ExecuteCascade(sim, CascadeConfig{
			Victim:      24940,
			CutFraction: frac, // the cut takes the lowest IDs first: the border
			RunFor:      12 * time.Hour,
		})
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(&b, "  cut %.0f%% of the AS (%d nodes, border first): %d/%d survivors behind, mean lag %.1f blocks (outside: %.1f%% behind)\n",
			frac*100, res.Cut, res.SurvivorsBehind, res.Survivors, res.MeanSurvivorLag, res.OutsideBehindFrac*100)
		cut := obs.L("cut_pct", fmt.Sprintf("%.0f", frac*100))
		reg.Counter("plan.cascade.survivors_behind", cut).Add(uint64(res.SurvivorsBehind))
		reg.Gauge("plan.cascade.mean_survivor_lag", cut).Set(res.MeanSurvivorLag)
		tick = int64(sim.Engine.Now())
	}
	b.WriteString("  isolating the border subset eclipses the entire AS, as §V-A predicts\n")
	return b.String(), tick, nil
}

// --- spatial ----------------------------------------------------------------

// runSpatial runs the §V-A BGP scenarios on the population's route table:
// the AS24940 sub-prefix hijack, the Table IV mining isolation, and the
// nation-state cut. It needs no live simulation.
func runSpatial(env Env) (string, int64, error) {
	sp, err := NewSpatial(env.Pop)
	if err != nil {
		return "", 0, err
	}
	pools, err := mining.NewPoolSet(dataset.TableIV())
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	b.WriteString("Spatial attack: sub-prefix hijack of AS24940 (Hetzner, 1,030 nodes)\n")
	plan, err := sp.PlanAS(666, 24940, 0.95)
	if err != nil {
		return "", 0, err
	}
	res, err := sp.Execute(plan, pools)
	if err != nil {
		return "", 0, err
	}
	fmt.Fprintf(&b, "  prefixes hijacked: %d (announcements: %d)\n", plan.HijackCount, res.Announcements)
	fmt.Fprintf(&b, "  nodes captured: %d of 1030 (%.1f%%)\n", res.CapturedNodes, float64(res.CapturedNodes)/10.30)
	sp.Withdraw()

	b.WriteString("Spatial attack on mining: hijack AS37963 + AS45102 + AS58563 (Table IV)\n")
	share := MinerIsolation(pools, []topology.ASN{37963, 45102, 58563})
	fmt.Fprintf(&b, "  hash share isolated: %.1f%%\n", share*100)

	b.WriteString("Nation-state scenario: block all Chinese ASes\n")
	cplan, err := sp.PlanCountry(0, "CN")
	if err != nil {
		return "", 0, err
	}
	var cnASes []topology.ASN
	for _, t := range cplan.Targets {
		cnASes = append(cnASes, t.Victim)
	}
	cnShare := MinerIsolation(pools, cnASes)
	fmt.Fprintf(&b, "  nodes behind CN ASes: %d; hash share: %.1f%%\n",
		cplan.ExpectedNodes, cnShare*100)
	reg := env.Obs.Registry()
	reg.Counter("plan.spatial.captured_nodes").Add(uint64(res.CapturedNodes))
	reg.Counter("plan.spatial.announcements").Add(uint64(res.Announcements))
	reg.Gauge("plan.spatial.mining_share_isolated").Set(share)
	reg.Gauge("plan.spatial.cn_hash_share").Set(cnShare)
	return b.String(), 0, nil
}

// --- spatiotemporal ---------------------------------------------------------

// runSpatioTemporal finds the weakest moment in a per-AS-tracked lag trace
// and sizes the combined attack for each adversary capability. It plans on
// the population trace.
func runSpatioTemporal(env Env) (string, int64, error) {
	tr, err := env.Pop.RunTrace(dataset.TraceConfig{
		Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute,
		Seed: env.Seed + 9, TrackSyncedByAS: true,
	})
	if err != nil {
		return "", 0, err
	}
	moment, err := FindBestMoment(tr, 5)
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Spatio-temporal attack: best moment at t=%v (synced %d, behind %d)\n",
		moment.Time, moment.Synced, moment.Behind)
	reg := env.Obs.Registry()
	reg.Counter("plan.spatiotemporal.synced_at_moment").Add(uint64(moment.Synced))
	reg.Counter("plan.spatiotemporal.behind_at_moment").Add(uint64(moment.Behind))
	for _, cap := range []Capability{CapabilityRouting, CapabilityMining, CapabilityBoth} {
		plan, err := PlanSpatioTemporal(env.Pop, moment, cap, 5)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(&b, "  %v adversary: %d ASes (%d prefixes), %d temporal victims, coverage %.1f%%\n",
			cap, len(plan.SpatialASes), plan.SpatialPrefixes, plan.TemporalVictims, plan.Coverage*100)
		reg.Gauge("plan.spatiotemporal.coverage", obs.L("capability", cap.String())).Set(plan.Coverage)
	}
	return b.String(), int64(moment.Time), nil
}

// --- logical ----------------------------------------------------------------

// runLogical runs the §V-D software-partition analyses (capture targets,
// crash exploit, diversity) and the live relay-silence executions at
// increasing capture shares. It builds its own simulations.
func runLogical(env Env) (string, int64, error) {
	db := vulndb.New()
	var b strings.Builder
	b.WriteString("Logical attack: software-version partitioning\n")
	plans, err := TopCaptureTargets(env.Pop, 3)
	if err != nil {
		return "", 0, err
	}
	for _, pl := range plans {
		fmt.Fprintf(&b, "  controlling %q captures %d nodes (%.1f%% of network)\n",
			pl.Version, pl.ControlledNodes, pl.NetworkShare*100)
	}
	impact, err := SimulateCrashExploit(env.Pop, db, "CVE-2018-17144")
	if err != nil {
		return "", 0, err
	}
	fmt.Fprintf(&b, "  CVE-2018-17144 crash exploit: %d of %d up nodes down (%.1f%%)\n",
		impact.NodesDown, impact.UpBefore, impact.DownShare*100)
	hhi := DiversityIndex(env.Pop)
	fmt.Fprintf(&b, "  client diversity (HHI): %.3f across %d variants\n",
		hhi, len(env.Pop.VersionCounts()))

	reg := env.Obs.Registry()
	reg.Counter("plan.logical.crash_nodes_down").Add(uint64(impact.NodesDown))
	reg.Gauge("plan.logical.diversity_hhi").Set(hhi)

	// Live execution: controlled clients silently stop relaying; the
	// honest remainder degrades with the captured share.
	b.WriteString("  relay-silence execution (12h window):\n")
	var tick int64
	for _, k := range []int{1, 2, 20, 100} {
		versions := []string{}
		for _, row := range measure.TopVersions(env.Pop, k) {
			versions = append(versions, row.Version)
		}
		sim, err := env.newSim(env.Seed + 8)
		if err != nil {
			return "", 0, err
		}
		sim.StartMining()
		sim.Run(3 * time.Hour)
		res, err := ExecuteLogicalCapture(sim, versions, 12*time.Hour, 0)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(&b, "    top %3d versions captured (%.0f%% of nodes silent): %.0f%% of honest nodes fall behind\n",
			k, res.Share*100, res.HonestBehindFrac*100)
		top := obs.L("top_versions", fmt.Sprintf("%d", k))
		reg.Gauge("plan.logical.captured_share", top).Set(res.Share)
		reg.Gauge("plan.logical.honest_behind_frac", top).Set(res.HonestBehindFrac)
		tick = int64(sim.Engine.Now())
	}
	b.WriteString("  eight-peer gossip redundancy resists relay silence until capture is near-total —\n")
	b.WriteString("  which is why §V-D frames logical control as an optimizer for the other attacks\n")
	return b.String(), tick, nil
}
