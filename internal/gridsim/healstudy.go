package gridsim

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/obs"
)

// The paper measures fork-resolution damage at heal time (§V): the
// partition is held open, the isolated region accumulates a counterfeit
// branch, and when the disruption lifts the honest chain floods back —
// reorganizing every captured cell. HealStudy re-runs that arc under each
// fault preset and reports how fault load shifts the heal-time outcome:
// a churning, flaky network both forks more on its own and re-converges
// more slowly once the attacker lets go.

// HealConfig parameterizes the partition-heal study.
type HealConfig struct {
	// Grid is the shared base configuration (attacker geometry, failure
	// rate, seed). The study forces the disruption window itself: the
	// boundary holds for the first half of the horizon and heals at the
	// midpoint, so every scenario is measured the same number of blocks
	// after heal.
	Grid Config
	// Trials is the Monte-Carlo ensemble size per scenario. Default 24.
	Trials int
	// Blocks is the per-replicate horizon in block intervals. Default 40
	// (heal at block 20).
	Blocks int
	// Workers bounds the fan-out; <= 0 means one per CPU.
	Workers int
	// Scenarios are the fault presets to sweep. Default: stable, churny,
	// flaky, hijack-recovery.
	Scenarios []faults.Scenario
}

func (hc HealConfig) withDefaults() HealConfig {
	if hc.Trials == 0 {
		hc.Trials = 24
	}
	if hc.Blocks == 0 {
		hc.Blocks = 40
	}
	if len(hc.Scenarios) == 0 {
		hc.Scenarios = []faults.Scenario{
			faults.Stable(), faults.Churny(), faults.Flaky(), faults.HijackRecovery(),
		}
	}
	return hc
}

// HealRow is one scenario's ensemble outcome.
type HealRow struct {
	// Scenario is the preset name.
	Scenario string
	// ForkRate is forks per block interval, with 95% CI half-width.
	ForkRate, ForkRateCI float64
	// CounterfeitShare is the fraction of cells still on an attacker
	// branch at the end of the run (half the horizon after heal), with CI.
	CounterfeitShare, CounterfeitShareCI float64
	// StaleShare is the fraction of cells at least one block behind at the
	// end of the run, with CI.
	StaleShare, StaleShareCI float64
	// FaultsInjected sums the obs faults.injected counters across the
	// ensemble (0 for the stable control row).
	FaultsInjected uint64
	// ForkBirths sums gridsim.fork_births across the ensemble.
	ForkBirths uint64
}

// HealStudyResult is the full sweep.
type HealStudyResult struct {
	Config HealConfig
	Rows   []HealRow
}

// RunHealStudy sweeps the fault scenarios over the partition-heal arc.
// Each scenario runs its own RunTrials ensemble with a metrics-only
// observer, so the obs-backed columns (faults injected, fork births) come
// from per-trial registries merged in trial order — identical at any
// worker count.
func RunHealStudy(hc HealConfig) (*HealStudyResult, error) {
	hc = hc.withDefaults()
	base := hc.Grid.withDefaults()
	stepsPerBlock := base.StepsPerBlock()
	// Force the heal arc: disruption from the start, lifted at the horizon
	// midpoint.
	base.BoundaryFrom = 0
	base.BoundaryUntil = stepsPerBlock * hc.Blocks / 2
	res := &HealStudyResult{Config: hc}
	for _, sc := range hc.Scenarios {
		cfg := base
		cfg.Faults = sc
		o := obs.NewMetricsOnly()
		cfg.Obs = o
		// Settle half an interval past the last block so the stale-share
		// column measures lingering divergence, not the propagation front of
		// the final block.
		tr, err := RunTrials(cfg, TrialsConfig{
			Trials: hc.Trials, Blocks: hc.Blocks, Workers: hc.Workers,
			SettleSteps: stepsPerBlock / 2,
		})
		if err != nil {
			return nil, fmt.Errorf("gridsim: heal study %q: %w", sc.Name, err)
		}
		snap := o.Metrics.Snapshot()
		name := sc.Name
		if name == "" {
			name = "custom"
		}
		res.Rows = append(res.Rows, HealRow{
			Scenario:           name,
			ForkRate:           tr.ForkRate,
			ForkRateCI:         tr.ForkRateCI,
			CounterfeitShare:   tr.MeanCounterfeitShare,
			CounterfeitShareCI: tr.MeanCounterfeitShareCI,
			StaleShare:         tr.MeanStaleShare,
			StaleShareCI:       tr.MeanStaleShareCI,
			FaultsInjected:     sumCounters(snap, "faults.injected"),
			ForkBirths:         sumCounters(snap, "gridsim.fork_births"),
		})
	}
	return res, nil
}

// sumCounters totals every counter whose name (including its label set)
// starts with the given metric name.
func sumCounters(snap obs.Snapshot, name string) uint64 {
	var total uint64
	for _, p := range snap.Counters {
		if p.Name == name || strings.HasPrefix(p.Name, name+"{") {
			total += p.Value
		}
	}
	return total
}

// Render formats the study as a paper-style table.
func (r *HealStudyResult) Render() string {
	var b strings.Builder
	heal := r.Config.Blocks / 2
	fmt.Fprintf(&b, "Partition-heal study: %d-trial ensembles, %d-block horizon, boundary heals at block %d\n",
		r.Config.Trials, r.Config.Blocks, heal)
	fmt.Fprintf(&b, "grid %dx%d, attacker share %.0f%%, radius %d; shares measured %d blocks after heal\n",
		r.Config.Grid.withDefaults().Size, r.Config.Grid.withDefaults().Size,
		r.Config.Grid.withDefaults().AttackerShare*100, r.Config.Grid.BoundaryRadius,
		r.Config.Blocks-heal)
	fmt.Fprintf(&b, "%-16s %18s %20s %18s %10s %8s\n",
		"scenario", "forks/block", "counterfeit share", "stale share", "faults", "births")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %9.3f ± %.3f %13.1f%% ± %.1f%% %11.1f%% ± %.1f%% %10d %8d\n",
			row.Scenario,
			row.ForkRate, row.ForkRateCI,
			row.CounterfeitShare*100, row.CounterfeitShareCI*100,
			row.StaleShare*100, row.StaleShareCI*100,
			row.FaultsInjected, row.ForkBirths)
	}
	return b.String()
}
