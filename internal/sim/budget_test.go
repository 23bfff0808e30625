package sim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// selfSustaining schedules an event chain that never terminates: each
// firing schedules the next — the shape of a non-terminating fault
// scenario the watchdog must cancel.
func selfSustaining(e *Engine) {
	var fire Handler
	fire = func(now time.Duration) {
		if err := e.After(time.Second, fire); err != nil {
			panic(err)
		}
	}
	if err := e.After(0, fire); err != nil {
		panic(err)
	}
}

func TestEventBudgetCancelsRun(t *testing.T) {
	e := &Engine{}
	e.SetEventBudget(100)
	selfSustaining(e)
	e.Run(time.Hour)
	if !e.exhausted {
		t.Fatal("watchdog did not fire")
	}
	if got := e.Processed(); got != 100 {
		t.Errorf("processed %d events, budget 100", got)
	}
	err := e.BudgetErr()
	if !errors.Is(err, checkpoint.ErrBudget) {
		t.Errorf("BudgetErr = %v, want wrap of checkpoint.ErrBudget", err)
	}
	// The clock must stay at the cancellation point, not jump to the
	// horizon: the run did not actually get there.
	if e.Now() >= time.Hour {
		t.Errorf("exhausted run advanced clock to %v", e.Now())
	}
}

func TestEventBudgetCancelsRunAll(t *testing.T) {
	e := &Engine{}
	e.SetEventBudget(50)
	selfSustaining(e)
	if err := e.RunAll(1 << 20); err != nil {
		t.Fatalf("RunAll returned the cap error before the budget: %v", err)
	}
	if !e.exhausted || e.Processed() != 50 {
		t.Errorf("exhausted=%v processed=%d", e.exhausted, e.Processed())
	}
}

func TestEventBudgetDisarmed(t *testing.T) {
	e := &Engine{}
	n := 0
	for i := 0; i < 10; i++ {
		if err := e.After(time.Duration(i)*time.Second, func(time.Duration) { n++ }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(time.Hour)
	if e.BudgetErr() != nil || n != 10 {
		t.Errorf("disarmed watchdog interfered: exhausted=%v n=%d", e.exhausted, n)
	}
	// Re-arming clears the latch.
	e.SetEventBudget(5)
	if e.exhausted {
		t.Error("SetEventBudget did not reset the latch")
	}
}

func TestEventBudgetDeterministic(t *testing.T) {
	run := func() (uint64, time.Duration) {
		e := &Engine{}
		e.SetEventBudget(64)
		selfSustaining(e)
		e.Run(time.Hour)
		return e.Processed(), e.Now()
	}
	p1, t1 := run()
	p2, t2 := run()
	if p1 != p2 || t1 != t2 {
		t.Errorf("cancellation point not deterministic: (%d,%v) vs (%d,%v)", p1, t1, p2, t2)
	}
}
