package integration

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/service"
)

// TestCommandGoldens pins `partition attack <plan> -seed 1` for every
// registered plan and `partition defend <name> -seed 1` for every defence
// to testdata/commands/<verb>_<name>_seed1.golden, through service.RunSpec,
// the entry point the CLI and the daemon share.
func TestCommandGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("seven attack plans and four defences")
	}
	var cmds []core.Command
	for _, name := range attack.PlanNames() {
		cmds = append(cmds, core.Command{Verb: "attack", Name: name})
	}
	for _, name := range []string{"blockaware", "stratum", "routeguard", "placement"} {
		cmds = append(cmds, core.Command{Verb: "defend", Name: name})
	}
	for _, cmd := range cmds {
		t.Run(cmd.Verb+"_"+cmd.Name, func(t *testing.T) {
			want, err := os.ReadFile(fmt.Sprintf("testdata/commands/%s_%s_seed1.golden", cmd.Verb, cmd.Name))
			if err != nil {
				t.Fatal(err)
			}
			spec := core.SpecFromOptions(1)
			spec.Run = cmd
			res, err := service.RunSpec(spec, service.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != string(want) {
				t.Errorf("%s diverged from golden:\n--- got ---\n%s--- want ---\n%s", cmd, res.Output, want)
			}
		})
	}
}
