package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestTrialsPanicSeedAttribution pins the satellite fix: a panic inside a
// seeded trial must carry both the task index and the derived seed, so the
// failing replicate can be reproduced standalone.
func TestTrialsPanicSeedAttribution(t *testing.T) {
	const root = int64(42)
	for _, workers := range []int{1, 4} {
		_, err := Trials(workers, root, 10, func(trial int, seed int64) (int, error) {
			if trial == 6 {
				panic("seeded kaboom")
			}
			return trial, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		want := DeriveSeed(root, 6)
		if pe.Task != 6 || !pe.Seeded || pe.Seed != want {
			t.Errorf("workers=%d: attribution task=%d seeded=%v seed=%d, want task 6 seed %d",
				workers, pe.Task, pe.Seeded, pe.Seed, want)
		}
		msg := fmt.Sprintf("task 6 (seed %d) panicked: seeded kaboom", want)
		if !strings.Contains(pe.Error(), msg) {
			t.Errorf("workers=%d: message %q missing %q", workers, pe.Error(), msg)
		}
	}
}

// TestSweepTrialsNilResultsOnError extends the Map no-partial-results
// regression to the other two entry points: Sweep and Trials must also
// withhold the result slice when any task fails.
func TestSweepTrialsNilResultsOnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		params := make([]int, 20)
		got, err := Sweep(workers, params, func(i, _ int) (int, error) {
			if i == 13 {
				return 0, fmt.Errorf("param %d failed", i)
			}
			return i + 1, nil
		})
		if err == nil || got != nil {
			t.Errorf("Sweep workers=%d: results=%v err=%v, want nil results with error", workers, got, err)
		}
		got, err = Trials(workers, 7, 20, func(trial int, seed int64) (int, error) {
			if trial == 13 {
				return 0, fmt.Errorf("trial %d failed", trial)
			}
			return trial + 1, nil
		})
		if err == nil || got != nil {
			t.Errorf("Trials workers=%d: results=%v err=%v, want nil results with error", workers, got, err)
		}
	}
}

// TestSuperviseDegradedMode: failing trials are quarantined into the report
// and every other trial still completes, for any worker count.
func TestSuperviseDegradedMode(t *testing.T) {
	const root, n = int64(3), 24
	for _, workers := range []int{1, 2, 8} {
		sup, err := SuperviseTrials(Supervision[int]{Workers: workers, Root: root}, n,
			func(trial int, seed int64) (int, error) {
				switch trial {
				case 5:
					panic("supervised kaboom")
				case 11:
					return 0, errors.New("plain failure")
				}
				return trial * 10, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := completed(sup.Ran); got != n-2 {
			t.Errorf("workers=%d: completed %d, want %d", workers, got, n-2)
		}
		if len(sup.Failures) != 2 {
			t.Fatalf("workers=%d: failures %v", workers, sup.Failures)
		}
		if sup.Failures[0].Task != 5 || sup.Failures[1].Task != 11 {
			t.Errorf("workers=%d: failure order %d,%d", workers, sup.Failures[0].Task, sup.Failures[1].Task)
		}
		var pe *PanicError
		if !errors.As(sup.Failures[0].Err, &pe) || pe.Seed != DeriveSeed(root, 5) || !pe.Seeded {
			t.Errorf("workers=%d: panic failure lost seed attribution: %v", workers, sup.Failures[0].Err)
		}
		if sup.Failures[1].Seed != DeriveSeed(root, 11) {
			t.Errorf("workers=%d: error failure seed %d", workers, sup.Failures[1].Seed)
		}
		for i := 0; i < n; i++ {
			failed := i == 5 || i == 11
			if sup.Ran[i] == failed {
				t.Errorf("workers=%d: Ran[%d] = %v", workers, i, sup.Ran[i])
			}
			if !failed && sup.Results[i] != i*10 {
				t.Errorf("workers=%d: Results[%d] = %d", workers, i, sup.Results[i])
			}
		}
	}
}

// TestSuperviseFailFast: with FailFast the supervised runner keeps the Map
// contract — nil results, lowest-index failing task's error.
func TestSuperviseFailFast(t *testing.T) {
	for _, workers := range []int{1, 4} {
		sup, err := SuperviseTrials(Supervision[int]{Workers: workers, FailFast: true}, 20,
			func(trial int, seed int64) (int, error) {
				if trial == 7 || trial == 13 {
					return 0, fmt.Errorf("trial %d failed", trial)
				}
				return trial, nil
			})
		if sup != nil {
			t.Errorf("workers=%d: partial report leaked alongside the error", workers)
		}
		if err == nil || err.Error() != "trial 7 failed" {
			t.Errorf("workers=%d: err = %v, want trial 7", workers, err)
		}
	}
}

// TestSuperviseSkipReplay: skipped (replayed-from-journal) tasks never run;
// the remainder still lands in the right slots.
func TestSuperviseSkipReplay(t *testing.T) {
	replayed := map[int]bool{0: true, 3: true, 4: true}
	sup, err := SuperviseTrials(Supervision[int]{
		Workers: 4,
		Skip:    func(task int) bool { return replayed[task] },
	}, 6, func(trial int, seed int64) (int, error) {
		if replayed[trial] {
			t.Errorf("replayed trial %d re-ran", trial)
		}
		return trial + 100, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if replayed[i] {
			if sup.Ran[i] {
				t.Errorf("skipped trial %d marked ran", i)
			}
			continue
		}
		if !sup.Ran[i] || sup.Results[i] != i+100 {
			t.Errorf("trial %d: ran=%v result=%d", i, sup.Ran[i], sup.Results[i])
		}
	}
}

// TestSuperviseOutcomeHook: every task reports exactly one outcome, the hook
// is serialized (no lock needed in the callback), and a hook error aborts
// the sweep — a journal that cannot record must stop the run.
func TestSuperviseOutcomeHook(t *testing.T) {
	const n = 16
	seen := map[int]Outcome[int]{}
	sup, err := SuperviseTrials(Supervision[int]{
		Workers: 8,
		Root:    9,
		OnOutcome: func(out Outcome[int]) error {
			if _, dup := seen[out.Task]; dup {
				t.Errorf("task %d reported twice", out.Task)
			}
			seen[out.Task] = out
			return nil
		},
	}, n, func(trial int, seed int64) (int, error) {
		if trial == 2 {
			return 0, errors.New("hooked failure")
		}
		return trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("hook saw %d outcomes, want %d", len(seen), n)
	}
	for task, out := range seen {
		if out.Seed != DeriveSeed(9, task) {
			t.Errorf("task %d outcome seed %d", task, out.Seed)
		}
		if task == 2 {
			if out.Err == nil {
				t.Error("failed task reported nil Err")
			}
		} else if out.Err != nil || out.Value != task {
			t.Errorf("task %d outcome = %v, %v", task, out.Value, out.Err)
		}
	}
	if len(sup.Failures) != 1 || sup.Failures[0].Task != 2 {
		t.Errorf("failures %v", sup.Failures)
	}

	hookErr := errors.New("disk full")
	sup, err = SuperviseTrials(Supervision[int]{
		Workers:   4,
		OnOutcome: func(Outcome[int]) error { return hookErr },
	}, n, func(trial int, seed int64) (int, error) { return trial, nil })
	if sup != nil || !errors.Is(err, hookErr) {
		t.Errorf("hook error: sup=%v err=%v, want nil report wrapping the hook error", sup, err)
	}
}

// TestSuperviseDeterministic: the report (results, ran flags, failures) is
// identical for any worker count, even with failures interleaved.
func TestSuperviseDeterministic(t *testing.T) {
	run := func(workers int) *Supervised[int64] {
		sup, err := SuperviseTrials(Supervision[int64]{Workers: workers, Root: 1}, 48,
			func(trial int, seed int64) (int64, error) {
				if trial%7 == 3 {
					return 0, fmt.Errorf("trial %d down", trial)
				}
				return seed, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return sup
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Ran, want.Ran) {
			t.Errorf("workers=%d: results diverged", workers)
		}
		if len(got.Failures) != len(want.Failures) {
			t.Fatalf("workers=%d: failure count diverged", workers)
		}
		for i := range got.Failures {
			if got.Failures[i].Task != want.Failures[i].Task || got.Failures[i].Seed != want.Failures[i].Seed {
				t.Errorf("workers=%d: failure %d diverged", workers, i)
			}
		}
	}
}

// completed counts the tasks that produced a result.
func completed(ran []bool) int {
	n := 0
	for _, ok := range ran {
		if ok {
			n++
		}
	}
	return n
}
