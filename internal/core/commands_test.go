package core

import (
	"strings"
	"testing"

	"repro/internal/attack"
)

// TestCommandTable pins the table's shape: every command appears once, the
// experiments open with the evaluation in presentation order, every attack
// plan is a command, and only ExperimentAll lacks a runner.
func TestCommandTable(t *testing.T) {
	cmds := Commands()
	seen := map[Command]bool{}
	for _, c := range cmds {
		if seen[c] {
			t.Errorf("%s is in the table twice", c)
		}
		seen[c] = true
	}
	for i, e := range evaluation {
		if cmds[i] != (Command{Verb: "experiment", Name: e.name}) {
			t.Errorf("table entry %d is %s, want experiment %s", i, cmds[i], e.name)
		}
	}
	for _, name := range attack.PlanNames() {
		if !seen[Command{Verb: "attack", Name: name}] {
			t.Errorf("attack plan %s has no command", name)
		}
	}
	for _, c := range commands {
		if (c.run == nil) != (c.Command == ExperimentAll) {
			t.Errorf("%s: runner presence wrong", c.Command)
		}
	}
}

// TestLookupRefusals: an unknown verb lists the verbs, and an unknown or
// wrong-case name lists exactly what its verb takes.
func TestLookupRefusals(t *testing.T) {
	if _, err := lookup(Command{Verb: "conquer", Name: "all"}); err == nil ||
		!strings.Contains(err.Error(), "experiment, attack, defend, export") {
		t.Errorf("unknown verb: %v", err)
	}
	for _, verb := range verbs {
		var names []string
		for _, c := range Commands() {
			if c.Verb == verb {
				names = append(names, c.Name)
			}
		}
		for _, name := range []string{"", "nosuch", strings.ToUpper(names[0])} {
			_, err := lookup(Command{Verb: verb, Name: name})
			if err == nil || !strings.HasSuffix(err.Error(), "("+verb+" takes "+strings.Join(names, ", ")+")") {
				t.Errorf("%s %q: %v", verb, name, err)
			}
		}
	}
	if _, err := (&Study{}).Run(ExperimentAll); err == nil {
		t.Errorf("Run(%s) ran; want it left to the sweep", ExperimentAll)
	}
}
