package attack

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// The seven attack scenarios sit behind one registry: a name mapped to the
// function that runs the scenario and the parameters it bakes in. The
// command table in core turns every entry into an `attack <name>` command,
// and partitiond's /v1/plans serves the same entries with their parameters.

// Result is a completed plan's outcome.
type Result struct {
	// Summary is the paper-style text the CLI prints.
	Summary string
	// Metrics are the plan's headline metrics, sorted by name.
	Metrics obs.Snapshot
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
	// plan is the registry name of the running plan, set by RunPlan.
	plan string
}

// finish seals a plan run: headline metrics merge into the Env's observer,
// and the summary goes into the trace as an "attack"/"summary" event so a
// recorded JSONL stream replays it.
func (e Env) finish(summary string, local *obs.Registry, tick int64) Result {
	e.Obs.Registry().Merge(local)
	e.Obs.Tracer().Emit(tick, "attack", "summary",
		obs.F("plan", e.plan), obs.F("text", summary))
	return Result{Summary: summary, Metrics: local.Snapshot()}
}

// plan is one registered scenario: its runner and the canonical parameter
// document /v1/plans serves for it. The parameters are baked into the
// runner (they come from the paper's §V setups and are part of the
// byte-identical summary contract); the document describes them, so an
// entry's two halves sit side by side and are edited together. Durations
// are Go duration strings, shares fractions.
type plan struct {
	run    func(Env) (Result, error)
	params map[string]any
}

// plans is the registry. Registration is static: the set of attacks is the
// paper's, and a sorted, compile-time-known registry keeps dispatch and
// error text deterministic.
var plans = map[string]plan{
	"cascade": {runCascade, map[string]any{
		"victim_as":     24940,
		"as_size":       30,
		"border_nodes":  6,
		"cut_fractions": []float64{0.1, 0.2, 0.5},
		"run_for":       "12h",
		"seed_salt":     7,
	}},
	"doublespend": {runDoubleSpend, map[string]any{
		"attacker_share": 0.30,
		"victims":        "n/10 lagging nodes",
		"hold_for":       "8h",
		"heal_for":       "4h",
		"track_payment":  true,
		"seed_salt":      5,
	}},
	"logical": {runLogical, map[string]any{
		"cve":           "CVE-2018-17144",
		"top_targets":   3,
		"capture_tiers": []int{1, 2, 20, 100},
		"relay_window":  "12h",
		"seed_salt":     8,
	}},
	"majority51": {runMajority51, map[string]any{
		"attacker_share": 0.30,
		"isolated_share": 0.657,
		"mine_for":       "24h",
		"seed_salt":      6,
	}},
	"spatial": {runSpatial, map[string]any{
		"hijacked_as":      24940,
		"prefix_coverage":  0.95,
		"mining_ases":      []int{37963, 45102, 58563},
		"country_scenario": "CN",
	}},
	"spatiotemporal": {runSpatioTemporal, map[string]any{
		"trace_window": "24h",
		"sample_every": "10m",
		"min_ases":     5,
		"capabilities": []string{"routing", "mining", "both"},
		"seed_salt":    9,
	}},
	"temporal": {runTemporal, map[string]any{
		"attacker_share": 0.30,
		"victims":        "n/8 lagging nodes",
		"hold_for":       "8h",
		"heal_for":       "4h",
		"warmup":         "6h",
	}},
}

// PlanNames returns the registry keys in sorted order.
func PlanNames() []string {
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupPlan finds the named plan. Unknown names report the full sorted
// registry.
func lookupPlan(name string) (plan, error) {
	p, ok := plans[name]
	if !ok {
		return plan{}, fmt.Errorf("attack: unknown plan %q (registry: %s)",
			name, strings.Join(PlanNames(), ", "))
	}
	return p, nil
}

// RunPlan runs the named plan on the simulation(s) it builds from env.
// Headline metrics are merged into env's observer registry, and the
// summary is emitted to its tracer so recorded traces replay it
// (ReplaySummaries).
func RunPlan(name string, env Env) (Result, error) {
	p, err := lookupPlan(name)
	if err != nil {
		return Result{}, err
	}
	env.plan = name
	return p.run(env)
}

// PlanParams returns the named plan's canonical parameter document as
// stable JSON (sorted keys — encoding/json sorts map keys).
func PlanParams(name string) (json.RawMessage, error) {
	p, err := lookupPlan(name)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(p.params)
	if err != nil {
		return nil, fmt.Errorf("attack: encode %s params: %w", name, err)
	}
	return doc, nil
}

// ReplaySummaries reconstructs each plan's summary from a decoded trace:
// every plan run emits a final "summary" event carrying the plan name and
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
