// Package core is the public orchestration API of the reproduction: a
// Study owns a calibrated synthetic population (the stand-in for the
// paper's Bitnodes crawl) and exposes one runner per table and figure of
// the paper's evaluation, each returning typed rows plus a paper-style text
// rendering. The cmd/partition CLI, the examples, and the root-level
// benchmarks are all thin wrappers over this package.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/gridsim"
	"repro/internal/obs"
)

// Options tune the expensive experiments. The zero value reproduces the
// paper's parameters at a scale that runs in seconds; Full() matches the
// paper's windows.
type Options struct {
	// TableVTraceDays is the trace length behind Table V's optimization.
	// The paper uses a two-month crawl; the lag process is stationary, so
	// a few days give the same maxima. Default 3.
	TableVTraceDays int
	// Figure6aDays is the "general trend" window. Default 3 (paper: ~60).
	Figure6aDays int
	// GridSize is the Figure 7 lattice side. Default 25 (as shown in the
	// paper's figure; the paper's full runs use 100).
	GridSize int
	// NetworkNodes is the live-simulation population for the attack demos.
	// Default 150.
	NetworkNodes int
	// Workers bounds the study's intra-experiment fan-out (the Figure 4
	// per-AS sweep, the Figure 6 panel set, the Table V window scan, and
	// RunAll). 0 means one worker per CPU; 1 forces sequential execution.
	// Every experiment's output is bit-identical for any worker count.
	Workers int
	// Obs attaches the observability layer (DESIGN.md §9) to every
	// simulation the study builds. Nil — the default — disables
	// instrumentation; experiment output is byte-identical either way.
	Obs *obs.Observer
	// Faults selects the fault scenario (DESIGN.md §10) every simulation
	// the study builds runs under — node churn, link faults, message
	// chaos. The zero value — the default — injects nothing and keeps
	// every experiment byte-identical to a faultless build.
	Faults faults.Scenario
	// StepBudget, when positive, arms the watchdog (DESIGN.md §11) on the
	// study's grid simulations: a trial that would run past this many grid
	// steps is cancelled with an error wrapping checkpoint.ErrBudget
	// instead of spinning forever under a pathological fault scenario.
	// Zero — the default — disarms the watchdog.
	StepBudget int
	// Shards, when >= 1, runs every grid simulation the study builds on
	// the sharded engine (DESIGN.md §13) with that many shards. Study
	// output is byte-identical for every shard count >= 1; zero — the
	// default — keeps the legacy sequential engine. ShardWorkers bounds
	// the goroutines ticking shards inside one world (0 = one per CPU)
	// and, like Workers, never changes results.
	Shards       int
	ShardWorkers int
}

func (o Options) withDefaults() Options {
	if o.TableVTraceDays == 0 {
		o.TableVTraceDays = 3
	}
	if o.Figure6aDays == 0 {
		o.Figure6aDays = 3
	}
	if o.GridSize == 0 {
		o.GridSize = 25
	}
	if o.NetworkNodes == 0 {
		o.NetworkNodes = 150
	}
	return o
}

// Full returns options at the paper's scale (minutes of CPU rather than
// seconds).
func Full() Options {
	return Options{
		TableVTraceDays: 60,
		Figure6aDays:    60,
		GridSize:        100,
		NetworkNodes:    10000,
	}
}

// Study owns the generated dataset and experiment state.
type Study struct {
	Pop  *dataset.Population
	Opts Options
	seed int64
}

// Option configures a Study at construction time (see New).
type Option func(*Options)

// WithFull selects the paper's experiment windows and scales (minutes of
// CPU rather than seconds) — the functional-options form of Full().
func WithFull() Option {
	return func(o *Options) {
		full := Full()
		o.TableVTraceDays = full.TableVTraceDays
		o.Figure6aDays = full.Figure6aDays
		o.GridSize = full.GridSize
		o.NetworkNodes = full.NetworkNodes
	}
}

// WithWorkers bounds the study's intra-experiment fan-out (0 = one worker
// per CPU, 1 = sequential). Output is bit-identical for any worker count.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithObserver attaches the observability layer to every simulation the
// study builds. Snapshot() reads back its metrics.
func WithObserver(observer *obs.Observer) Option {
	return func(o *Options) { o.Obs = observer }
}

// WithWindows overrides the Table V trace length and the Figure 6a trend
// window, both in days (0 keeps the respective default).
func WithWindows(tableVTraceDays, figure6aDays int) Option {
	return func(o *Options) {
		o.TableVTraceDays = tableVTraceDays
		o.Figure6aDays = figure6aDays
	}
}

// WithGridSize overrides the Figure 7 lattice side.
func WithGridSize(n int) Option {
	return func(o *Options) { o.GridSize = n }
}

// WithNetworkNodes overrides the live-simulation population size used by
// the attack demos.
func WithNetworkNodes(n int) Option {
	return func(o *Options) { o.NetworkNodes = n }
}

// WithFaults runs every simulation the study builds under the given fault
// scenario (DESIGN.md §10):
//
//	study, err := core.New(1, core.WithFaults(faults.Churny()))
func WithFaults(sc faults.Scenario) Option {
	return func(o *Options) { o.Faults = sc }
}

// WithStepBudget arms the watchdog (DESIGN.md §11) on the study's grid
// simulations: trials running past n grid steps are cancelled with an error
// wrapping checkpoint.ErrBudget.
func WithStepBudget(n int) Option {
	return func(o *Options) { o.StepBudget = n }
}

// WithShards runs every grid simulation the study builds on the sharded
// engine with k shards (DESIGN.md §13):
//
//	study, err := core.New(1, core.WithShards(16))
//
// Study output is byte-identical for every k >= 1; 0 keeps the legacy
// engine.
func WithShards(k int) Option {
	return func(o *Options) { o.Shards = k }
}

// WithShardWorkers bounds the goroutines ticking shards inside one sharded
// world (0 = one per CPU). Never changes results.
func WithShardWorkers(w int) Option {
	return func(o *Options) { o.ShardWorkers = w }
}

// gridAttackerCell is the row and column of the attacker's cell in the
// Figure 7 and heal-study grids.
const gridAttackerCell = 7

// gridOptions prepends the study-wide grid settings — lattice side and the
// sharding mode — to an experiment's own options, so every grid world a
// study builds shares one engine selection.
func (s *Study) gridOptions(opts ...gridsim.Option) []gridsim.Option {
	base := []gridsim.Option{gridsim.WithSize(s.Opts.GridSize)}
	if s.Opts.Shards >= 1 {
		base = append(base,
			gridsim.WithShards(s.Opts.Shards),
			gridsim.WithShardWorkers(s.Opts.ShardWorkers))
	}
	return append(base, opts...)
}

// New generates (or reuses, per seed) the synthetic population and wraps
// it in a Study configured by the given options:
//
//	study, err := core.New(1, core.WithFull(), core.WithWorkers(8))
func New(seed int64, opts ...Option) (*Study, error) {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return newStudy(seed, o)
}

// populations memoizes the synthetic population per generation seed. The
// build is the dominant cost of study construction and deterministic in the
// seed, so studies sharing a seed share one copy built exactly once — even
// when constructed concurrently. The memoized copy is never mutated: the
// only mutable part, the BGP route table the spatial attacks and defenses
// announce into and purge, is forked per study by newStudy.
var populations sync.Map // int64 -> *popEntry

type popEntry struct {
	once sync.Once
	pop  *dataset.Population
	err  error
}

func generatePopulation(seed int64) (*dataset.Population, error) {
	v, _ := populations.LoadOrStore(seed, &popEntry{})
	e := v.(*popEntry)
	e.once.Do(func() { e.pop, e.err = dataset.Generate(seed) })
	return e.pop, e.err
}

// newStudy wraps a (memoized) population in a Study, reusing a cached
// population when one was already built for the seed. The study gets its
// own route table so its hijacks never reach another study of the seed.
func newStudy(seed int64, opts Options) (*Study, error) {
	pop, err := generatePopulation(seed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	own := *pop
	own.Topo = pop.Topo.Fork()
	return &Study{Pop: &own, Opts: opts.withDefaults(), seed: seed}, nil
}

// Seed returns the study's generation seed.
func (s *Study) Seed() int64 { return s.seed }

// Observer returns the study's attached observability layer (nil when
// observability is off).
func (s *Study) Observer() *obs.Observer { return s.Opts.Obs }

// WritePopulation streams the study's synthetic population in the columnar
// pop.v1 format (one checksum frame per column, DESIGN.md §12) — the
// archival form of the Feb-28-2018 snapshot the study runs on.
func (s *Study) WritePopulation(w io.Writer) error {
	return dataset.WriteFramedPopulation(w, s.Pop)
}

// traceSeed derives per-experiment trace seeds from the study seed so that
// experiments are independent but reproducible.
func (s *Study) traceSeed(salt int64) int64 { return s.seed*1000003 + salt }

// runTrace is the shared trace helper.
func (s *Study) runTrace(d, sample time.Duration, salt int64, trackAS bool) (*dataset.Trace, error) {
	return s.Pop.RunTrace(dataset.TraceConfig{
		Duration:        d,
		SampleEvery:     sample,
		Seed:            s.traceSeed(salt),
		TrackSyncedByAS: trackAS,
	})
}
