package service_test

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
)

// TestSpecFlagsMatchSubmittedDocument holds the two admission paths to one
// answer: the spec SpecFlags builds from a flag set (the CLI's and
// `partitiond submit`'s path) and the same spec written as a JSON document
// and sent through Service.Submit (the daemon's path) give the same
// fingerprint, or the same error. Each document is assembled field by
// field, never from the flags, so the two sides are built independently.
func TestSpecFlagsMatchSubmittedDocument(t *testing.T) {
	type tc struct {
		name       string
		args       []string
		verb, noun string
		// want is the spec the flags describe; nil when the flags name
		// something no document can spell (an unknown fault preset).
		want *core.Spec
	}
	spec := func(verb, noun string, seed int64, opts core.Options) *core.Spec {
		return &core.Spec{Schema: core.SpecSchemaV1, Run: core.Command{Verb: verb, Name: noun}, Seed: seed, Options: opts}
	}
	cases := []tc{
		{"defaults", nil, "experiment", "table1", spec("experiment", "table1", 1, core.Options{})},
		{"seed", []string{"-seed", "9"}, "experiment", "table1", spec("experiment", "table1", 9, core.Options{})},
		{"full", []string{"-full"}, "experiment", "table1", spec("experiment", "table1", 1,
			core.Options{TableVTraceDays: 60, Figure6aDays: 60, GridSize: 100, NetworkNodes: 10000})},
		{"workers", []string{"-workers", "3"}, "experiment", "table1", spec("experiment", "table1", 1, core.Options{Workers: 3})},
		{"stepbudget 0", []string{"-stepbudget", "0"}, "experiment", "table1", spec("experiment", "table1", 1, core.Options{})},
		{"stepbudget 7", []string{"-stepbudget", "7"}, "experiment", "table1", spec("experiment", "table1", 1, core.Options{StepBudget: 7})},
		{"stepbudget -5", []string{"-stepbudget", "-5"}, "experiment", "table1", spec("experiment", "table1", 1, core.Options{StepBudget: -5})},
		{"unknown preset", []string{"-faults", "gremlins"}, "experiment", "table1", nil},
		{"wrong case", nil, "attack", "Spatial", spec("attack", "Spatial", 1, core.Options{})},
	}
	for _, name := range faults.PresetNames() {
		sc, err := faults.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{"faults " + name, []string{"-faults", name}, "experiment", "table1",
			spec("experiment", "table1", 1, core.Options{Faults: sc})})
	}
	for _, verb := range []string{"experiment", "attack", "defend", "export"} {
		cases = append(cases, tc{"unknown " + verb, nil, verb, "nosuch", spec(verb, "nosuch", 1, core.Options{})})
	}

	svc, _ := newService(t, t.TempDir(), 1, 64)
	defer svc.Drain()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("spec", flag.ContinueOnError)
			sf := service.RegisterSpecFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			built, flagErr := sf.Spec(c.verb, c.noun)
			if c.want == nil {
				if flagErr == nil || !strings.Contains(flagErr.Error(), "gremlins") {
					t.Fatalf("flags %q built %+v, %v; want the preset refused", c.args, built, flagErr)
				}
				return
			}
			doc, err := json.Marshal(*c.want)
			if err != nil {
				t.Fatal(err)
			}
			view, _, submitErr := svc.Submit(doc)
			if flagErr != nil || submitErr != nil {
				if flagErr == nil || submitErr == nil || flagErr.Error() != submitErr.Error() {
					t.Fatalf("flags %q: error %v; document %s: error %v", c.args, flagErr, doc, submitErr)
				}
				return
			}
			if !reflect.DeepEqual(built, *c.want) {
				t.Errorf("flags %q built %+v, want %+v", c.args, built, *c.want)
			}
			if fp := fingerprint(t, built); fp != view.ID {
				t.Errorf("flags %q fingerprint %s, document %s admitted as %s", c.args, fp, doc, view.ID)
			}
		})
	}
}
