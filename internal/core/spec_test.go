package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
)

// specFixtures spans the spec space: defaults, every scale knob, sharding,
// and a fault preset.
func specFixtures(t *testing.T) []Spec {
	t.Helper()
	churny, err := faults.Preset("churny")
	if err != nil {
		t.Fatal(err)
	}
	return []Spec{
		{Schema: SpecSchemaV1, Run: Command{Verb: "experiment", Name: "all"}, Seed: 1},
		{Schema: SpecSchemaV1, Run: Command{Verb: "attack", Name: "spatial"}, Seed: 7,
			TableVTraceDays: 5, Figure6aDays: 2, GridSize: 30, NetworkNodes: 200},
		{Schema: SpecSchemaV1, Run: Command{Verb: "experiment", Name: "figure7"}, Seed: 3,
			Workers: 8, StepBudget: 500, Shards: 4, ShardWorkers: 2},
		{Schema: SpecSchemaV1, Run: Command{Verb: "defend", Name: "stratum"}, Seed: 2,
			Faults: churny},
	}
}

// TestSpecRoundTrip is the satellite-1 property: spec → Options() →
// SpecFromOptions is the identity, and JSON round-trips losslessly.
func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range specFixtures(t) {
		back := SpecFromOptions(spec.Seed, spec.Options()...)
		back.Run = spec.Run
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("options round-trip not identity:\n got %+v\nwant %+v", back, spec)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("parse %s: %v", data, err)
		}
		if !reflect.DeepEqual(parsed, spec) {
			t.Errorf("JSON round-trip not identity:\n got %+v\nwant %+v", parsed, spec)
		}
	}
}

// TestSpecCanonicalJSONFieldOrder pins the canonical rendering: declaration
// order, schema first, stable forever (the fingerprint hashes these bytes).
func TestSpecCanonicalJSONFieldOrder(t *testing.T) {
	spec := Spec{
		Schema: SpecSchemaV1,
		Run:    Command{Verb: "experiment", Name: "all"},
		Seed:   1,
	}
	doc, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"schema":"spec.v1","run":{"verb":"experiment","name":"all"},"seed":1,` +
		`"tablev_trace_days":3,"figure6a_days":3,"grid_size":25,"network_nodes":150,"faults":`
	if !strings.HasPrefix(string(doc), want) {
		t.Errorf("canonical JSON drifted:\n got %s\nwant prefix %s", doc, want)
	}
}

// TestSpecFingerprintEquivalence: specs that produce byte-identical output
// share a fingerprint; specs that differ in output do not.
func TestSpecFingerprintEquivalence(t *testing.T) {
	base := Spec{Schema: SpecSchemaV1, Run: Command{Verb: "experiment", Name: "all"}, Seed: 1}
	fp := func(s Spec) string {
		t.Helper()
		got, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	baseFP := fp(base)

	// Output-neutral knobs collapse.
	same := base
	same.Workers = 8
	if fp(same) != baseFP {
		t.Error("workers changed the fingerprint")
	}
	explicit := base
	explicit.TableVTraceDays, explicit.Figure6aDays = 3, 3
	explicit.GridSize, explicit.NetworkNodes = 25, 150
	if fp(explicit) != baseFP {
		t.Error("explicit defaults fingerprint differently from zeros")
	}
	sharded := base
	sharded.Shards = 4
	sharded.ShardWorkers = 3
	sharded16 := base
	sharded16.Shards = 16
	if fp(sharded) != fp(sharded16) {
		t.Error("shard count >= 1 changed the fingerprint")
	}
	if fp(sharded) == baseFP {
		t.Error("engine selection (sharded vs legacy) did not change the fingerprint")
	}

	// Output-changing knobs split.
	for name, mutate := range map[string]func(*Spec){
		"seed":         func(s *Spec) { s.Seed = 2 },
		"grid size":    func(s *Spec) { s.GridSize = 30 },
		"step budget":  func(s *Spec) { s.StepBudget = 100 },
		"fault preset": func(s *Spec) { s.Faults = faults.Flaky() },
		"command":      func(s *Spec) { s.Run = Command{Verb: "attack", Name: "temporal"} },
	} {
		diff := base
		mutate(&diff)
		if fp(diff) == baseFP {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}
}

// TestSpecValidate covers the rejection paths.
func TestSpecValidate(t *testing.T) {
	ok := Spec{Schema: SpecSchemaV1, Run: Command{Verb: "experiment", Name: "all"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*Spec){
		"schema":                 func(s *Spec) { s.Schema = "spec.v9" },
		"verb":                   func(s *Spec) { s.Run.Verb = "banana" },
		"empty name":             func(s *Spec) { s.Run.Name = "" },
		"negative grid":          func(s *Spec) { s.GridSize = -1 },
		"shard workers alone":    func(s *Spec) { s.ShardWorkers = 2 },
		"negative shard count":   func(s *Spec) { s.Shards = -3 },
		"negative trace window":  func(s *Spec) { s.TableVTraceDays = -1 },
		"grid without attacker":  func(s *Spec) { s.GridSize = 7 },
		"more shards than cells": func(s *Spec) { s.GridSize = 8; s.Shards = 65 },
	}
	for name, mutate := range cases {
		bad := ok
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

// TestParseSpecRejectsUnknownFields: a misspelled knob must not silently
// revert to its default (it would poison the content-addressed cache).
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"schema":"spec.v1","run":{"verb":"experiment","name":"all"},"seed":1,"grid_sise":30}`))
	if err == nil || !strings.Contains(err.Error(), "grid_sise") {
		t.Errorf("unknown field accepted (err=%v)", err)
	}
}

// TestNewFromSpec ties the spec to the constructor: the built study carries
// the spec's options, and SpecFromStudy inverts it.
func TestNewFromSpec(t *testing.T) {
	spec := Spec{
		Schema: SpecSchemaV1, Run: Command{Verb: "experiment", Name: "all"},
		Seed: 1, GridSize: 30, Workers: 2,
	}
	s, err := NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed() != 1 || s.Opts.GridSize != 30 || s.Opts.Workers != 2 {
		t.Fatalf("study options %+v do not match spec", s.Opts)
	}
	// withDefaults filled the unset windows; the re-captured spec reflects
	// the study as built.
	back := SpecFromStudy(s, spec.Run)
	if back.GridSize != 30 || back.TableVTraceDays != 3 || back.Run != spec.Run {
		t.Errorf("SpecFromStudy = %+v", back)
	}
	// Both sides agree on the canonical fingerprint.
	fpSpec, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpBack, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpSpec != fpBack {
		t.Error("spec and SpecFromStudy fingerprints disagree")
	}
}
