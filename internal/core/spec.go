package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/checkpoint"
)

// A Spec is the serializable form of a study invocation: the generation
// seed, the study's settings (Options, embedded), and the command to run
// (experiment/attack/defend/export plus its name). It is the wire format of
// the partitiond service (DESIGN.md §14) and the value the CLI builds from
// its flags, so daemon and CLI share one entry point.
//
// json.Marshal emits the fields in declaration order — the three below,
// then the embedded settings' own, which encoding/json promotes in place —
// so a spec's canonical rendering (Canonical() with the output-neutral
// knobs normalized away) is a stable document whose FNV fingerprint
// content-addresses the result cache and the resume journals alike.

// SpecSchemaV1 names the first (current) spec schema. Every serialized spec
// carries it; readers reject unknown schemas.
const SpecSchemaV1 = "spec.v1"

// ErrSpecSchema marks a spec document with an unknown schema version.
var errSpecSchema = fmt.Errorf("core: unknown spec schema (want %q)", SpecSchemaV1)

// Command selects what a spec runs: a CLI-style verb plus a name, one entry
// of the command table ("experiment all", "attack spatial", ...).
type Command struct {
	// Verb is one of "experiment", "attack", "defend", "export".
	Verb string `json:"verb"`
	// Name is the experiment/plan/defense/export name within the verb.
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
	// Options are the study's settings; zero values select the same
	// defaults core.New applies.
	Options
}

// SpecFromOptions captures a seed and a functional-option list as a Spec:
// the exact values the options set, defaults not yet applied.
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func SpecFromOptions(seed int64, opts ...Option) Spec {
	var s Study
	for _, apply := range opts {
		apply(&s)
	}
	return Spec{Schema: SpecSchemaV1, Seed: seed, Options: s.Opts}
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

// Validate checks the invariants a spec must hold before it is run,
// fingerprinted or stored: a known schema, a command of the command table
// spelled exactly, and non-negative scale fields, the trace days and the
// grid size within their caps. Every admission path (ParseSpec, the CLI's
// flags, RunSpec) ends here, so all refuse a bad spec with one error.
func (s Spec) Validate() error {
	if s.Schema != SpecSchemaV1 {
		return fmt.Errorf("%w, got %q", errSpecSchema, s.Schema)
	}
	if _, err := lookup(s.Run); err != nil {
		return err
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
	} {
		if f.v < 0 {
			return fmt.Errorf("core: spec field %s is negative (%d)", f.name, f.v)
		}
		if f.max > 0 && f.v > f.max {
			return fmt.Errorf("core: spec field %s is %d, above its cap of %d", f.name, f.v, f.max)
		}
	}
	// Every grid experiment places the attacker at (gridAttackerCell,
	// gridAttackerCell).
	size := s.withDefaults().GridSize
	if size <= gridAttackerCell {
		return fmt.Errorf("core: spec grid_size %d leaves no room for the attacker cell (%d,%d); need at least %d",
			size, gridAttackerCell, gridAttackerCell, gridAttackerCell+1)
	}
	return nil
}

// Canonical returns the cache-key form of the spec: defaults applied (so a
// zero GridSize and an explicit 25 canonicalize identically) and Workers
// zeroed, since output is byte-identical at any worker count.
func (s Spec) Canonical() Spec {
	s.Options = s.withDefaults()
	s.Workers = 0
	return s
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
	return newStudy(s.Seed, s.Options, extra)
}

// SpecFromStudy captures an existing study's configuration as a Spec with
// the given command. Workers is preserved (it is part of the invocation,
// not of the canonical identity).
func SpecFromStudy(s *Study, run Command) Spec {
	return Spec{Schema: SpecSchemaV1, Run: run, Seed: s.seed, Options: s.Opts}
}
