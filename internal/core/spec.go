package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/faults"
)

// A Spec is the serializable form of a study invocation: the generation
// seed, every option that core.New accepts, and the command to run
// (experiment/attack/defend/export plus its name). It is the wire format of
// the partitiond service (DESIGN.md §14) and the value the CLI now builds
// from its flags, so daemon and CLI share one entry point.
//
// The contract is lossless round-tripping: Spec → Options() → SpecFromOptions
// is the identity, and json.Marshal emits fields in the fixed declaration
// order below, so a spec's canonical rendering — Canonical() with the
// output-neutral knobs normalized away — is a stable document whose FNV
// fingerprint content-addresses the result cache and the resume journals
// alike.

// SpecSchemaV1 names the first (current) spec schema. Every serialized spec
// carries it; readers reject unknown schemas.
const SpecSchemaV1 = "spec.v1"

// ErrSpecSchema marks a spec document with an unknown schema version.
var errSpecSchema = fmt.Errorf("core: unknown spec schema (want %q)", SpecSchemaV1)

// Command selects what a spec runs: a CLI-style verb plus the name the
// verb's registry resolves ("experiment all", "attack spatial", ...).
type Command struct {
	// Verb is one of "experiment", "attack", "defend", "export".
	Verb string `json:"verb"`
	// Name is the experiment/plan/defense/export name the verb dispatches.
	Name string `json:"name"`
}

// String renders the command the way the CLI spells it.
func (c Command) String() string { return c.Verb + " " + c.Name }

// Spec is one serializable study invocation. Field order is canonical: the
// JSON rendering follows this declaration order, and tests pin it.
type Spec struct {
	// Schema is always SpecSchemaV1.
	Schema string `json:"schema"`
	// Run is the command this spec executes.
	Run Command `json:"run"`
	// Seed is the generation seed (the CLI's -seed).
	Seed int64 `json:"seed"`
	// The remaining fields mirror Options one-to-one; zero values select
	// the same defaults core.New applies. See Options for semantics.
	TableVTraceDays int             `json:"tablev_trace_days,omitempty"`
	Figure6aDays    int             `json:"figure6a_days,omitempty"`
	GridSize        int             `json:"grid_size,omitempty"`
	NetworkNodes    int             `json:"network_nodes,omitempty"`
	Workers         int             `json:"workers,omitempty"`
	StepBudget      int             `json:"step_budget,omitempty"`
	Shards          int             `json:"shards,omitempty"`
	ShardWorkers    int             `json:"shard_workers,omitempty"`
	Faults          faults.Scenario `json:"faults"`
}

// SpecFromOptions captures a seed and a functional-option list as a Spec —
// the exact values the options set, defaults not yet applied, so the
// round-trip with Spec.Options is the identity.
func SpecFromOptions(seed int64, opts ...Option) Spec {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return specFromRawOptions(seed, o)
}

// specFromRawOptions wraps an un-defaulted Options value.
func specFromRawOptions(seed int64, o Options) Spec {
	return Spec{
		Schema:          SpecSchemaV1,
		Seed:            seed,
		TableVTraceDays: o.TableVTraceDays,
		Figure6aDays:    o.Figure6aDays,
		GridSize:        o.GridSize,
		NetworkNodes:    o.NetworkNodes,
		Workers:         o.Workers,
		StepBudget:      o.StepBudget,
		Shards:          o.Shards,
		ShardWorkers:    o.ShardWorkers,
		Faults:          o.Faults,
	}
}

// Options reconstructs the functional-option list the spec was captured
// from. SpecFromOptions(s.Seed, s.Options()...) equals s for any spec.
func (s Spec) Options() []Option {
	return []Option{
		WithWindows(s.TableVTraceDays, s.Figure6aDays),
		WithGridSize(s.GridSize),
		WithNetworkNodes(s.NetworkNodes),
		WithWorkers(s.Workers),
		WithStepBudget(s.StepBudget),
		WithShards(s.Shards),
		WithShardWorkers(s.ShardWorkers),
		WithFaults(s.Faults),
	}
}

// The caps on a spec's scale fields. A trace of a year at 10-minute
// sampling is 52,704 samples; 100,000 days would ask for 3 GB of sample
// rows, and time.Duration wraps above 106,751 days. A 1,000-wide grid is
// the million-cell world; 10⁵ would ask for 10¹⁰ cells. The paper scale
// (-full) is 60 days and a 100-wide grid.
const (
	maxSpecTraceDays = 366
	maxSpecGridSize  = 1000
)

// Validate checks the structural invariants a spec must hold before it is
// run or fingerprinted: a known schema, a known verb, a non-empty name, and
// non-negative scale fields, the trace days and the grid size within their
// caps. The service checks the name against the verb's table before it
// runs or stores anything.
func (s Spec) Validate() error {
	if s.Schema != SpecSchemaV1 {
		return fmt.Errorf("%w, got %q", errSpecSchema, s.Schema)
	}
	switch s.Run.Verb {
	case "experiment", "attack", "defend", "export":
	default:
		return fmt.Errorf("core: unknown spec verb %q (experiment, attack, defend, export)", s.Run.Verb)
	}
	if s.Run.Name == "" {
		return fmt.Errorf("core: spec has no command name")
	}
	for _, f := range []struct {
		name string
		v    int
		max  int // 0: uncapped
	}{
		{"tablev_trace_days", s.TableVTraceDays, maxSpecTraceDays},
		{"figure6a_days", s.Figure6aDays, maxSpecTraceDays},
		{"grid_size", s.GridSize, maxSpecGridSize},
		{"network_nodes", s.NetworkNodes, 0},
		{"step_budget", s.StepBudget, 0},
		{"shards", s.Shards, 0},
		{"shard_workers", s.ShardWorkers, 0},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: spec field %s is negative (%d)", f.name, f.v)
		}
		if f.max > 0 && f.v > f.max {
			return fmt.Errorf("core: spec field %s is %d, above its cap of %d", f.name, f.v, f.max)
		}
	}
	if s.ShardWorkers != 0 && s.Shards == 0 {
		return fmt.Errorf("core: spec sets shard_workers without shards")
	}
	// Every grid experiment places the attacker at (gridAttackerCell,
	// gridAttackerCell), and the sharded engine needs a cell per shard.
	size := Options{GridSize: s.GridSize}.withDefaults().GridSize
	if size <= gridAttackerCell {
		return fmt.Errorf("core: spec grid_size %d leaves no room for the attacker cell (%d,%d); need at least %d",
			size, gridAttackerCell, gridAttackerCell, gridAttackerCell+1)
	}
	if s.Shards > size*size {
		return fmt.Errorf("core: spec shards %d exceeds the %d cells of a %dx%d grid", s.Shards, size*size, size, size)
	}
	return nil
}

// Canonical returns the cache-key form of the spec: defaults applied (so a
// zero GridSize and an explicit 25 canonicalize identically) and the knobs
// that never change output normalized away — Workers and ShardWorkers are
// zeroed (output is byte-identical at any worker count), and Shards
// collapses to 1 for every count >= 1 (the sharded engine is byte-identical
// across shard counts; only the 0-vs-sharded engine split is kept, matching
// the journal-fingerprint discipline of DESIGN.md §13).
func (s Spec) Canonical() Spec {
	o := Options{
		TableVTraceDays: s.TableVTraceDays,
		Figure6aDays:    s.Figure6aDays,
		GridSize:        s.GridSize,
		NetworkNodes:    s.NetworkNodes,
		StepBudget:      s.StepBudget,
		Shards:          s.Shards,
		ShardWorkers:    s.ShardWorkers,
		Faults:          s.Faults,
	}.withDefaults()
	c := specFromRawOptions(s.Seed, o)
	c.Run = s.Run
	c.Workers = 0
	c.ShardWorkers = 0
	if c.Shards >= 1 {
		c.Shards = 1
	}
	return c
}

// CanonicalJSON renders the canonical form as its stable JSON document:
// declaration-order fields, no indentation, one trailing newline stripped.
func (s Spec) CanonicalJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Canonical())
}

// Fingerprint content-addresses the spec: the FNV study fingerprint of the
// canonical JSON document (checkpoint.StudyFingerprint). Two specs share a
// fingerprint exactly when their results are byte-identical by the repo's
// determinism contracts, so it is the key of the partitiond result cache
// and of the resume journal a checkpointed run writes.
func (s Spec) Fingerprint() (string, error) {
	canonical, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return checkpoint.StudyFingerprint(SpecSchemaV1, canonical), nil
}

// ParseSpec decodes and validates a serialized spec. Unknown fields are
// rejected: a misspelled knob silently reverting to its default would
// poison the content-addressed cache.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("core: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// NewFromSpec builds the study a spec describes — the one constructor the
// CLI and the daemon share. Extra options (an observer, say) are applied on
// top of the spec's own; they must be output-neutral.
func NewFromSpec(s Spec, extra ...Option) (*Study, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return New(s.Seed, append(s.Options(), extra...)...)
}

// SpecFromStudy captures an existing study's configuration as a Spec with
// the given command. Workers is preserved (it is part of the invocation,
// not of the canonical identity).
func SpecFromStudy(s *Study, run Command) Spec {
	spec := specFromRawOptions(s.seed, s.Opts)
	spec.Run = run
	return spec
}
