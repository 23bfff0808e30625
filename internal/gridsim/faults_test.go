package gridsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestFaultedTrialsWorkerInvariant: a faulted Monte-Carlo ensemble must be
// identical at any worker count — trials, summary statistics, and the
// merged metric registry all included.
func TestFaultedTrialsWorkerInvariant(t *testing.T) {
	run := func(workers int) (*TrialsResult, string) {
		cfg := trialsBase()
		cfg.Faults = faults.Churny()
		o := obs.NewMetricsOnly()
		cfg.Obs = o
		res, err := RunTrials(cfg, TrialsConfig{Trials: 12, Blocks: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res, o.Metrics.Snapshot().Render()
	}
	res1, snap1 := run(1)
	for _, workers := range []int{2, 8} {
		res, snap := run(workers)
		if !reflect.DeepEqual(res.Trials, res1.Trials) {
			t.Errorf("workers=%d: trial outcomes differ from workers=1", workers)
		}
		if snap != snap1 {
			t.Errorf("workers=%d: merged metrics differ from workers=1:\n%s\nvs\n%s",
				workers, snap, snap1)
		}
	}
	if !strings.Contains(snap1, "faults.injected{kind=cell_down}") &&
		!strings.Contains(snap1, "faults.injected{kind=churn_down}") {
		t.Errorf("churny ensemble injected no churn:\n%s", snap1)
	}
}

// TestGridZeroScenarioMatchesNoFaults: a zero-value Scenario in the grid
// config must reproduce the no-faults ensemble exactly.
func TestGridZeroScenarioMatchesNoFaults(t *testing.T) {
	plain, err := RunTrials(trialsBase(), TrialsConfig{Trials: 8, Blocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trialsBase()
	cfg.Faults = faults.Scenario{}
	zero, err := RunTrials(cfg, TrialsConfig{Trials: 8, Blocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Trials, zero.Trials) {
		t.Error("zero-value Scenario perturbed the grid ensemble")
	}
}

// TestHealStudyBlockInterval checks that the heal study times its arc on
// the block interval the grid mines at. At span 0.5 on a 25-grid a block
// is 13 steps (12.5 rounded), so the boundary lifts at step 13·Blocks/2 and
// the settle is half a block: the study's row must equal an ensemble run
// with exactly that window.
func TestHealStudyBlockInterval(t *testing.T) {
	grid := trialsBase()
	grid.Size, grid.AttackerRow, grid.AttackerCol = 25, 12, 12
	const trials, blocks = 4, 10
	res, err := RunHealStudy(HealConfig{
		Grid: grid, Trials: trials, Blocks: blocks,
		Scenarios: []faults.Scenario{faults.Stable()},
	})
	if err != nil {
		t.Fatal(err)
	}
	spb := grid.StepsPerBlock()
	if spb != 13 {
		t.Fatalf("steps per block = %d, want 13", spb)
	}
	want := grid
	want.BoundaryUntil = spb * blocks / 2
	want.Faults = faults.Stable()
	want.Obs = obs.NewMetricsOnly()
	tr, err := RunTrials(want, TrialsConfig{Trials: trials, Blocks: blocks, SettleSteps: spb / 2})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	got := []float64{row.ForkRate, row.CounterfeitShare, row.StaleShare}
	exp := []float64{tr.ForkRate, tr.MeanCounterfeitShare, tr.MeanStaleShare}
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("heal study (fork rate, counterfeit, stale) = %v, want %v from a %d-step boundary", got, exp, want.BoundaryUntil)
	}
}

// TestHealStudySmoke runs a miniature heal study end to end: every preset
// row present, the stable control row injecting nothing, the faulted rows
// injecting something, and the rendering mentioning each scenario.
func TestHealStudySmoke(t *testing.T) {
	res, err := RunHealStudy(HealConfig{
		Grid:   trialsBase(),
		Trials: 4,
		Blocks: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 presets", len(res.Rows))
	}
	byName := map[string]HealRow{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
	}
	stable, ok := byName["stable"]
	if !ok {
		t.Fatal("no stable control row")
	}
	if stable.FaultsInjected != 0 {
		t.Errorf("stable row injected %d faults", stable.FaultsInjected)
	}
	var faulted uint64
	for _, name := range []string{"churny", "flaky", "hijack-recovery"} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s row", name)
		}
		faulted += row.FaultsInjected
	}
	if faulted == 0 {
		t.Error("no faulted row injected anything")
	}
	text := res.Render()
	for _, name := range []string{"stable", "churny", "flaky", "hijack-recovery"} {
		if !strings.Contains(text, name) {
			t.Errorf("rendered table missing %q:\n%s", name, text)
		}
	}
}
