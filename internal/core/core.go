// Package core is the public orchestration API of the reproduction: a
// Study owns a calibrated synthetic population (the stand-in for the
// paper's Bitnodes crawl) and exposes one runner per table and figure of
// the paper's evaluation, each returning typed rows plus a paper-style text
// rendering. The cmd/partition CLI, the examples, and the root-level
// benchmarks are all thin wrappers over this package.
package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Options are the study's settings. They are also the body of a Spec: a
// Spec embeds them, encoding/json promotes their fields in declaration
// order, and the tags below are the spec's wire names. A setting is
// declared here once; Spec.Validate checks it, and service.SpecFlags sets
// the ones the CLI exposes. The zero value reproduces the paper's
// parameters at a scale that runs in seconds; Full() matches the paper's
// windows.
type Options struct {
	// TableVTraceDays is the trace length behind Table V's optimization.
	// The paper uses a two-month crawl; the lag process is stationary, so
	// a few days give the same maxima. Default 3.
	TableVTraceDays int `json:"tablev_trace_days,omitempty"`
	// Figure6aDays is the "general trend" window. Default 3 (paper: ~60).
	Figure6aDays int `json:"figure6a_days,omitempty"`
	// GridSize is the Figure 7 lattice side. Default 25 (as shown in the
	// paper's figure; the paper's full runs use 100).
	GridSize int `json:"grid_size,omitempty"`
	// NetworkNodes is the live-simulation population for the attack demos.
	// Default 150.
	NetworkNodes int `json:"network_nodes,omitempty"`
	// Workers bounds the study's intra-experiment fan-out (the Figure 4
	// per-AS sweep, the Figure 6 panel set, the Table V window scan, and
	// RunAll). 0 means one worker per CPU; 1 forces sequential execution.
	// Every experiment's output is bit-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// StepBudget, when positive, arms the watchdog (DESIGN.md §11) on the
	// study's grid simulations: a trial that would run past this many grid
	// steps is cancelled with an error wrapping checkpoint.ErrBudget
	// instead of spinning forever under a pathological fault scenario.
	// Zero — the default — disarms the watchdog.
	StepBudget int `json:"step_budget,omitempty"`
	// Faults selects the fault scenario (DESIGN.md §10) every simulation
	// the study builds runs under — node churn, link faults, message
	// chaos. The zero value — the default — injects nothing and keeps
	// every experiment byte-identical to a faultless build.
	Faults faults.Scenario `json:"faults"`
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

// Full returns options at the paper's scale: 60-day traces, a 100×100
// grid and a 10,000-node live network. `experiment all` at this scale
// takes seconds, not minutes (about 4–6 s wall on 2 CPUs, most of it
// figure5's 10,000-node network); healstudy, outside `all`, about 20 s.
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
	// obs is the observability layer (DESIGN.md §9) attached to every
	// simulation the study builds. Nil — the default — disables
	// instrumentation; experiment output is byte-identical either way, so
	// it is no setting and never reaches a Spec.
	obs *obs.Observer
}

// Option configures a Study at construction time (see New).
type Option func(*Study)

// WithWorkers bounds the study's intra-experiment fan-out (0 = one worker
// per CPU, 1 = sequential). Output is bit-identical for any worker count.
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func WithWorkers(n int) Option {
	return func(s *Study) { s.Opts.Workers = n }
}

// WithObserver attaches the observability layer to every simulation the
// study builds. Snapshot() reads back its metrics.
func WithObserver(observer *obs.Observer) Option {
	return func(s *Study) { s.obs = observer }
}

// WithNetworkNodes overrides the live-simulation population size used by
// the attack demos.
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func WithNetworkNodes(n int) Option {
	return func(s *Study) { s.Opts.NetworkNodes = n }
}

// gridAttackerCell is the row and column of the attacker's cell in the
// Figure 7 and heal-study grids.
const gridAttackerCell = 7

// New generates (or reuses, per seed) the synthetic population and wraps
// it in a Study configured by the given options:
//
//	study, err := core.New(1, core.WithWorkers(8))
//
// Settings without an option (the paper scale, a fault scenario, the step
// budget) are spec fields: build those studies with NewFromSpec.
func New(seed int64, opts ...Option) (*Study, error) {
	return newStudy(seed, Options{}, opts)
}

// populations memoizes the synthetic population of the most recently used
// generation seeds. The build is nearly all of study construction (the rest
// is a copy-on-write route-table fork) and deterministic in the seed, so
// studies sharing a seed share one copy built exactly once — even when
// constructed concurrently. The memoized copy is never mutated: the only
// mutable part, the BGP route table the spatial attacks and defenses
// announce into and purge, is forked per study by newStudy.
var populations popMemo

// popMemoSeeds bounds the memo. A population is about 3.7 MB, so an
// unbounded memo grows by that much for every new seed a long-lived daemon
// or sweep sees; eight seeds hold it near 30 MB and still cover the few
// seeds a session's repeated jobs cycle through (a daemon's clients
// typically name a handful). Evicting a seed only costs a rebuild, which
// yields the same rows.
const popMemoSeeds = 8

// popMemo is the bounded memo: its entries in order of last use, oldest
// first.
type popMemo struct {
	mu     sync.Mutex
	recent []*popEntry
}

type popEntry struct {
	seed int64
	once sync.Once
	pop  *dataset.Population
	err  error
}

// entry returns seed's entry, marked most recently used, adding it (and
// evicting the least recently used one past the bound) when absent.
func (m *popMemo) entry(seed int64) *popEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.recent, func(e *popEntry) bool { return e.seed == seed })
	var e *popEntry
	if i >= 0 {
		e = m.recent[i]
		m.recent = slices.Delete(m.recent, i, i+1)
	} else {
		e = &popEntry{seed: seed}
		if len(m.recent) == popMemoSeeds {
			m.recent = slices.Delete(m.recent, 0, 1)
		}
	}
	m.recent = append(m.recent, e)
	return e
}

func generatePopulation(seed int64) (*dataset.Population, error) {
	e := populations.entry(seed)
	e.once.Do(func() { e.pop, e.err = dataset.Generate(seed) })
	return e.pop, e.err
}

// newStudy wraps a (memoized) population in a Study with the given
// settings and options, reusing a cached population when one was already
// built for the seed. The study gets its own route table so its hijacks
// never reach another study of the seed.
func newStudy(seed int64, settings Options, opts []Option) (*Study, error) {
	s := &Study{Opts: settings, seed: seed}
	for _, apply := range opts {
		apply(s)
	}
	s.Opts = s.Opts.withDefaults()
	pop, err := generatePopulation(seed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	own := *pop
	own.Topo = pop.Topo.Fork()
	s.Pop = &own
	return s, nil
}

// Seed returns the study's generation seed.
func (s *Study) Seed() int64 { return s.seed }

// traceSeed derives per-experiment trace seeds from the study seed so that
// experiments are independent but reproducible.
func (s *Study) traceSeed(salt int64) int64 { return s.seed*1000003 + salt }

// runTrace is the shared trace helper: it runs cfg on the study's
// population with the trace seed of salt.
func (s *Study) runTrace(salt int64, cfg dataset.TraceConfig) (*dataset.Trace, error) {
	cfg.Seed = s.traceSeed(salt)
	return s.Pop.RunTrace(cfg)
}
