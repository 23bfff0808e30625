package attack

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// The Plan interface unifies the seven attack entry points behind one
// shape: a named scenario that runs against a simulation and reports a
// paper-style summary plus headline metrics. cmd/partition dispatches
// attacks from the sorted registry below instead of a hand-rolled switch,
// and new scenarios register here instead of forking the CLI.

// Plan is one registered attack scenario.
type Plan interface {
	// Name is the registry key (the CLI's attack noun).
	Name() string
	// Run executes the scenario on the simulation(s) it builds from its
	// Env. Headline metrics are merged into the Env's observer registry,
	// and the summary is emitted to its tracer so recorded traces replay
	// it (ReplaySummaries).
	Run() (Result, error)
}

// Result is a completed plan's outcome.
type Result interface {
	// Summary is the paper-style text the CLI prints, byte-identical to
	// the pre-registry hand-rolled output.
	Summary() string
	// Metrics returns the plan's headline metrics, sorted by name.
	Metrics() obs.Snapshot
}

// Env carries the study-level context a plan needs to build its scenario:
// the population, the live-simulation scale, the seed the per-attack
// sub-seeds derive from, the observability sink, the fault scenario every
// built simulation runs under, and a simulation factory
// (core.Study.NewSimFromPopulation in the CLI, which realizes Faults
// itself; plans that assemble their own netsim.Config thread Faults into
// it directly).
type Env struct {
	Pop          *dataset.Population
	NetworkNodes int
	Seed         int64
	Obs          *obs.Observer
	Faults       faults.Scenario
	NewSim       func(n int, seed int64) (*netsim.Simulation, error)
}

// planResult is the concrete Result all plans return.
type planResult struct {
	name    string
	summary string
	metrics obs.Snapshot
}

func (r planResult) Summary() string       { return r.summary }
func (r planResult) Metrics() obs.Snapshot { return r.metrics }

// finish seals a plan run: headline metrics merge into the Env's observer,
// and the summary goes into the trace as an "attack"/"summary" event so a
// recorded JSONL stream replays it.
func (e Env) finish(name, summary string, local *obs.Registry, tick int64) Result {
	e.Obs.Registry().Merge(local)
	e.Obs.Tracer().Emit(tick, "attack", "summary",
		obs.F("plan", name), obs.F("text", summary))
	return planResult{name: name, summary: summary, metrics: local.Snapshot()}
}

// planRegistry maps registry keys to constructors. Registration is static:
// the set of attacks is the paper's, and a sorted, compile-time-known
// registry keeps the CLI's dispatch and error text deterministic.
var planRegistry = map[string]func(Env) Plan{
	"cascade":        func(e Env) Plan { return &cascadePlan{env: e} },
	"doublespend":    func(e Env) Plan { return &doubleSpendPlan{env: e} },
	"logical":        func(e Env) Plan { return &logicalPlan{env: e} },
	"majority51":     func(e Env) Plan { return &majorityPlan{env: e} },
	"spatial":        func(e Env) Plan { return &spatialPlan{env: e} },
	"spatiotemporal": func(e Env) Plan { return &spatioTemporalPlan{env: e} },
	"temporal":       func(e Env) Plan { return &temporalPlan{env: e} },
}

// PlanNames returns the registry keys in sorted order.
func PlanNames() []string {
	names := make([]string, 0, len(planRegistry))
	for name := range planRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewPlan instantiates the named plan. Unknown names report the full
// sorted registry.
func NewPlan(name string, env Env) (Plan, error) {
	ctor, ok := planRegistry[name]
	if !ok {
		return nil, fmt.Errorf("attack: unknown plan %q (registry: %s)",
			name, strings.Join(PlanNames(), ", "))
	}
	return ctor(env), nil
}

// ReplaySummaries reconstructs each plan's Summary() from a decoded trace:
// every Plan.Run emits a final "summary" event carrying the plan name and
// the exact summary text, so a recorded JSONL trace replays the reported
// outcome without re-running the simulation. Later events win when a plan
// ran more than once.
//
//lint:ignore unusedexport replays recorded traces for the integration replay tests; README, DESIGN.md and EXPERIMENTS.md document it
func ReplaySummaries(log *obs.TraceLog) map[string]string {
	out := map[string]string{}
	for _, ev := range log.Events {
		if ev.Scope != "attack" || ev.Type != "summary" {
			continue
		}
		var name, text string
		for _, f := range ev.Fields {
			switch f.K {
			case "plan":
				name = f.V
			case "text":
				text = f.V
			}
		}
		if name != "" {
			out[name] = text
		}
	}
	return out
}
