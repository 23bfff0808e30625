package gridsim

import (
	"errors"
	"testing"

	"repro/internal/checkpoint"
)

func TestStepBudgetCancelsAdvance(t *testing.T) {
	g, err := FromConfig(Config{Size: 10, Seed: 1, StepBudget: 30})
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(100)
	if g.BudgetErr() == nil {
		t.Fatal("watchdog did not fire")
	}
	if g.Step() != 30 {
		t.Errorf("stopped at step %d, budget 30", g.Step())
	}
	if err := g.BudgetErr(); !errors.Is(err, checkpoint.ErrBudget) {
		t.Errorf("BudgetErr = %v, want wrap of checkpoint.ErrBudget", err)
	}
	// Further Advance calls stay cancelled: the grid does not creep past
	// the budget one call at a time.
	g.Advance(5)
	if g.Step() != 30 {
		t.Errorf("cancelled grid advanced to %d", g.Step())
	}
}

func TestStepBudgetDisarmed(t *testing.T) {
	g, err := FromConfig(Config{Size: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(100)
	if g.BudgetErr() != nil || g.Step() != 100 {
		t.Errorf("disarmed watchdog interfered: exhausted=%v step=%d", g.BudgetErr() != nil, g.Step())
	}
}

func TestRunTrialsStepBudgetExhausted(t *testing.T) {
	cfg := Config{Size: 10, Seed: 7}
	tight := cfg
	tight.StepBudget = 20
	res, err := RunTrials(tight, TrialsConfig{Trials: 4, Blocks: 5})
	if !errors.Is(err, checkpoint.ErrBudget) {
		t.Fatalf("RunTrials = %v, want wrap of checkpoint.ErrBudget", err)
	}
	if res != nil {
		t.Error("partial ensemble leaked alongside the budget error")
	}
	// A budget above the run length never fires.
	ample := cfg
	if g, err := FromConfig(cfg); err == nil {
		ample.StepBudget = g.StepsPerBlock()*5 + 1
	}
	if _, err := RunTrials(ample, TrialsConfig{Trials: 4, Blocks: 5}); err != nil {
		t.Errorf("ample budget tripped: %v", err)
	}
}
