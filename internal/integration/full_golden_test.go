package integration

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestExperimentAllFullGolden pins `partition experiment all -full -seed 1`,
// the evaluation at the paper's scale (60-day traces, a 100×100 grid and a
// 10,000-node live network), to testdata/experiment_all_seed1_full.golden
// through service.RunSpec, the entry point the CLI and the daemon share.
// The default-scale goldens never reach these sizes, so a change that moves
// only paper-scale output (figure5 at 10,000 nodes above all) shows here.
func TestExperimentAllFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the evaluation at paper scale")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1_full.golden")
	if err != nil {
		t.Fatal(err)
	}
	res, err := service.RunSpec(core.Spec{
		Schema:  core.SpecSchemaV1,
		Run:     core.ExperimentAll,
		Seed:    1,
		Options: core.Full(),
	}, service.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != string(want) {
		t.Errorf("paper-scale output diverged from golden (%d bytes vs %d)", len(res.Output), len(want))
	}
}
