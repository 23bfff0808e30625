package gridsim

import (
	"repro/internal/faults"
	"repro/internal/obs"
)

// Option mutates a Config under construction, mirroring core.New.
type Option func(*Config)

// New builds a grid simulation from a seed and options. The baseline is
// the paper's Figure 7 grid — size 25, span ratio 2.0, 10% failure rate,
// no attacker, no faults — so `gridsim.New(seed)` alone is a runnable
// honest world and each option adjusts one axis:
//
//	g, err := gridsim.New(1,
//		gridsim.WithSize(100),
//		gridsim.WithAttacker(0.30, 7, 7),
//		gridsim.WithBoundary(5, 0, 200),
//		gridsim.WithShards(16),
//	)
//
// FromConfig remains the raw-struct escape hatch; New(seed, opts...) is
// exactly FromConfig(NewConfig(seed, opts...)).
func New(seed int64, opts ...Option) (*Grid, error) {
	return FromConfig(NewConfig(seed, opts...))
}

// NewConfig assembles the Config that New would run: the Figure 7 baseline
// under the given seed, with every option applied in order. Exposed so
// ensemble entry points (RunTrials, RunHealStudy) and tests can build a
// configuration via options and still tweak or reuse it as a value.
func NewConfig(seed int64, opts ...Option) Config {
	cfg := Config{Size: 25, Seed: seed}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithSize sets the grid side length (Size² cells).
func WithSize(size int) Option { return func(c *Config) { c.Size = size } }

// WithSpanRatio sets Rspan: steps per block = SpanRatio · Size.
func WithSpanRatio(r float64) Option { return func(c *Config) { c.SpanRatio = r } }

// WithFailureRate sets the per-attempt communication failure probability.
func WithFailureRate(p float64) Option { return func(c *Config) { c.FailureRate = p } }

// WithAttacker arms the attacker: hash-rate share and anchor cell.
func WithAttacker(share float64, row, col int) Option {
	return func(c *Config) {
		c.AttackerShare = share
		c.AttackerRow, c.AttackerCol = row, col
	}
}

// WithBoundary encloses the attacked region: Chebyshev radius around the
// attacker cell and the [from, until) step window (until 0 = whole run).
func WithBoundary(radius, from, until int) Option {
	return func(c *Config) {
		c.BoundaryRadius = radius
		c.BoundaryFrom, c.BoundaryUntil = from, until
	}
}

// WithObserver attaches the observability layer.
func WithObserver(o *obs.Observer) Option { return func(c *Config) { c.Obs = o } }

// WithFaults selects the fault scenario.
func WithFaults(sc faults.Scenario) Option { return func(c *Config) { c.Faults = sc } }

// WithStepBudget arms the runaway-trial watchdog.
func WithStepBudget(steps int) Option { return func(c *Config) { c.StepBudget = steps } }

// WithShards switches the world onto the sharded engine with k shards
// (DESIGN.md §13). Output is byte-identical for every k >= 1. No study
// selects the engine; perfbench's ladder row is the last caller, and the
// engine goes with ROADMAP item 4(b).
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func WithShards(k int) Option { return func(c *Config) { c.Shards = k } }

// WithShardWorkers bounds the goroutines ticking shards inside this world;
// <= 0 means one per CPU. Never changes results. Like WithShards, it goes
// with the sharded engine in ROADMAP item 4(b).
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func WithShardWorkers(w int) Option { return func(c *Config) { c.ShardWorkers = w } }
