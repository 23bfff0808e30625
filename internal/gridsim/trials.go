package gridsim

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// The paper's Figure 7 presents "a sample of results obtained from
// simulation": a single grid run. Monte-Carlo confidence on the quantities
// behind it — how often forks emerge, how large the attacker's counterfeit
// region grows — needs an ensemble of independent replicates, which are
// embarrassingly parallel. RunTrials fans them across cores while keeping
// the ensemble bit-identical for any worker count: trial i always runs with
// seed DeriveSeed(cfg.Seed, i) and results are collected in trial order.

// TrialsConfig parameterizes a Monte-Carlo ensemble of grid runs.
type TrialsConfig struct {
	// Trials is the number of independent replicates.
	Trials int
	// Blocks is the number of block intervals each replicate simulates.
	// Default 40 (the span-ratio ablation's horizon).
	Blocks int
	// SettleSteps advances each replicate this many extra steps past the
	// final block event before measuring, so end-of-run metrics are not
	// dominated by the propagation of the very last block (the ablation
	// benches sample half an interval past the last block the same way).
	// Zero — the default — measures at the final block event exactly.
	SettleSteps int
	// Workers bounds concurrent replicates; <= 0 means one per CPU.
	Workers int
}

// Trial is the outcome of one replicate.
type Trial struct {
	// Seed is the derived seed the replicate ran with.
	Seed int64
	// Forks is the number of branches that emerged beyond the main chain.
	Forks int
	// CounterfeitCells is the number of cells on an attacker branch at the
	// end of the run.
	CounterfeitCells int
	// StaleCells is the number of cells at least one block behind the
	// global best height at the end of the run.
	StaleCells int
	// MaxHeight is the global best height at the end of the run.
	MaxHeight int
}

// TrialsResult summarizes the ensemble.
type TrialsResult struct {
	// Config echoes the grid configuration the replicates shared (modulo
	// the per-trial seed).
	Config Config
	// Blocks is the per-replicate horizon in block intervals.
	Blocks int
	// Trials holds every replicate outcome, in trial order.
	Trials []Trial
	// ForkRate is the mean forks-per-block-interval across replicates, with
	// the half-width of its 95% confidence interval.
	ForkRate, ForkRateCI float64
	// MeanForks is the mean fork count per replicate, with its 95% CI
	// half-width.
	MeanForks, MeanForksCI float64
	// MeanCounterfeitShare is the mean fraction of cells left on an
	// attacker branch, with its 95% CI half-width.
	MeanCounterfeitShare, MeanCounterfeitShareCI float64
	// MeanStaleShare is the mean fraction of cells at least one block
	// behind the best height at the end of the run, with its 95% CI
	// half-width.
	MeanStaleShare, MeanStaleShareCI float64
}

func (tc TrialsConfig) withDefaults() TrialsConfig {
	if tc.Blocks == 0 {
		tc.Blocks = 40
	}
	return tc
}

// RunTrials runs tc.Trials independent grid simulations of cfg, each for
// tc.Blocks block intervals under its own derived seed, fanned across
// tc.Workers cores. The result is identical for any worker count.
func RunTrials(cfg Config, tc TrialsConfig) (*TrialsResult, error) {
	tc = tc.withDefaults()
	if tc.Trials <= 0 {
		return nil, fmt.Errorf("gridsim: trials %d must be positive", tc.Trials)
	}
	if tc.Blocks <= 0 {
		return nil, fmt.Errorf("gridsim: blocks %d must be positive", tc.Blocks)
	}
	// Validate once up front so a bad config fails before the fan-out.
	if err := cfg.withDefaults().Validate(); err != nil {
		return nil, err
	}
	// With an attached registry, each replicate records into its own
	// metrics-only observer (slot-indexed, so workers never share one);
	// the per-trial registries are merged back in trial order below,
	// keeping the ensemble's metrics identical for any worker count.
	ensembleReg := cfg.Obs.Registry()
	var trialRegs []*obs.Registry
	if ensembleReg != nil {
		trialRegs = make([]*obs.Registry, tc.Trials)
	}
	// Completed grids are pooled and reset for the next replicate: the SoA
	// arenas (cell, fork, neighbor, and region slices) are reused, so the
	// steady-state ensemble performs near-zero allocations per trial. ResetConfig
	// is byte-identical to New, so pooling cannot perturb any result.
	var pool sync.Pool
	runOne := func(trial int, seed int64) (Trial, error) {
		runCfg := cfg
		runCfg.Seed = seed
		if trialRegs != nil {
			o := obs.NewMetricsOnly()
			trialRegs[trial] = o.Metrics
			runCfg.Obs = o
		} else {
			runCfg.Obs = nil
		}
		var g *Grid
		var err error
		if pooled, _ := pool.Get().(*Grid); pooled != nil {
			g, err = pooled, pooled.ResetConfig(runCfg)
		} else {
			g, err = FromConfig(runCfg)
		}
		if err != nil {
			return Trial{}, fmt.Errorf("trial %d: %w", trial, err)
		}
		g.Advance(g.StepsPerBlock()*tc.Blocks + tc.SettleSteps)
		if err := g.BudgetErr(); err != nil {
			return Trial{}, fmt.Errorf("trial %d: %w", trial, err)
		}
		t := Trial{
			Seed:             seed,
			Forks:            g.ForksEmerged(),
			CounterfeitCells: g.CounterfeitCells(),
			StaleCells:       g.StaleCells(),
			MaxHeight:        g.MaxHeight(),
		}
		pool.Put(g)
		return t, nil
	}
	trials, err := parallel.Trials(tc.Workers, cfg.Seed, tc.Trials, runOne)
	if err != nil {
		return nil, err
	}
	res := &TrialsResult{Config: cfg, Blocks: tc.Blocks, Trials: trials}
	for _, reg := range trialRegs {
		ensembleReg.Merge(reg)
	}
	n := cfg.withDefaults().Size
	cells := float64(n * n)
	forks := make([]float64, len(res.Trials))
	rates := make([]float64, len(res.Trials))
	shares := make([]float64, len(res.Trials))
	stale := make([]float64, len(res.Trials))
	for i, t := range res.Trials {
		forks[i] = float64(t.Forks)
		rates[i] = float64(t.Forks) / float64(tc.Blocks)
		shares[i] = float64(t.CounterfeitCells) / cells
		stale[i] = float64(t.StaleCells) / cells
	}
	res.MeanForks, res.MeanForksCI = stats.MeanCI95(forks)
	res.ForkRate, res.ForkRateCI = stats.MeanCI95(rates)
	res.MeanCounterfeitShare, res.MeanCounterfeitShareCI = stats.MeanCI95(shares)
	res.MeanStaleShare, res.MeanStaleShareCI = stats.MeanCI95(stale)
	return res, nil
}
