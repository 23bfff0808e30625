package integration

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestCommandGoldens pins `partition attack <plan> -seed 1` and
// `partition defend <name> -seed 1` for every such command of the command
// table to testdata/commands/<verb>_<name>_seed1.golden, through
// service.RunSpec, the entry point the CLI and the daemon share.
func TestCommandGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("seven attack plans and four defences")
	}
	ran := 0
	for _, cmd := range core.Commands() {
		if cmd.Verb != "attack" && cmd.Verb != "defend" {
			continue
		}
		ran++
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
	// Every golden belongs to a command of the table.
	if goldens, _ := filepath.Glob("testdata/commands/*_seed1.golden"); len(goldens) != ran {
		t.Errorf("%d goldens for %d attack and defend commands", len(goldens), ran)
	}
}
