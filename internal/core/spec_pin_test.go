package core

import (
	"testing"

	"repro/internal/faults"
)

// TestSpecFingerprintPinned fixes the cache keys: the Fingerprint of each
// spec fixture and of one spec per fault preset. A fingerprint names a
// partitiond cache entry and a resume journal on disk, so a change to the
// spec's declaration or canonical form that moves one orphans every result
// stored under the old key: a moved key is a format change, not a
// refactor. The specs are built by field assignment so the test reads the
// same whatever struct declares the fields.
func TestSpecFingerprintPinned(t *testing.T) {
	spec := func(verb, name string, seed int64, set func(*Spec)) Spec {
		s := Spec{Schema: SpecSchemaV1, Run: Command{Verb: verb, Name: name}, Seed: seed}
		if set != nil {
			set(&s)
		}
		return s
	}
	type pin struct {
		name string
		spec Spec
		want string
	}
	cases := []pin{
		{"experiment_all", spec("experiment", "all", 1, nil), "70bcdbe0a77f55cd"},
		{"attack_spatial_scaled", spec("attack", "spatial", 7, func(s *Spec) {
			s.TableVTraceDays, s.Figure6aDays, s.GridSize, s.NetworkNodes = 5, 2, 30, 200
		}), "bc2b2b0d9f2c3c8c"},
		{"figure7_budget", spec("experiment", "figure7", 3, func(s *Spec) {
			s.Workers, s.StepBudget = 8, 500
		}), "bfa4f713c0da43e6"},
		{"defend_stratum_churny", spec("defend", "stratum", 2, func(s *Spec) {
			s.Faults = faults.Churny()
		}), "c07a40eb916be545"},
	}
	presets := map[string]string{
		"churny":          "c3e658f05f650f64",
		"flaky":           "3192a9fe75474316",
		"hijack-recovery": "5181ac367ac3929f",
		"stable":          "05009c31daa225d0",
	}
	for _, name := range faults.PresetNames() {
		sc, err := faults.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := presets[name]
		if !ok {
			t.Errorf("preset %q has no pinned fingerprint", name)
		}
		cases = append(cases, pin{"preset_" + name, spec("experiment", "healstudy", 5, func(s *Spec) { s.Faults = sc }), want})
	}
	for _, c := range cases {
		got, err := c.spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: fingerprint %s, pinned %s", c.name, got, c.want)
		}
	}
}
