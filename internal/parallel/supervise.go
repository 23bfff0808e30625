package parallel

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Outcome is the supervised result of one task, reported to the journal
// callback the moment the task finishes. Exactly one of Value/Err is
// meaningful: Err nil means Value is the task's result.
type Outcome[T any] struct {
	// Task is the task index; Seed is its derived seed.
	Task int
	Seed int64
	// Value is the task's result when Err is nil.
	Value T
	// Err is the task's failure: a *PanicError for a recovered panic, or
	// the error the task returned.
	Err error
}

// Failure records one failed task in a degraded-mode report.
type Failure struct {
	// Task and Seed identify the failing task.
	Task int
	Seed int64
	// Err is the failure: a *PanicError preserves the panic value and
	// stack; a watchdog cancellation wraps the budget sentinel.
	Err error
}

// Supervised is the full report of a supervised sweep that ran in degraded
// mode: every task either produced a result or is accounted for in
// Failures, so a partial ensemble is explicit, never silent.
type Supervised[T any] struct {
	// Results has one slot per task, in task order. Slots of failed or
	// skipped-and-never-replayed tasks hold the zero value; consult Ran.
	Results []T
	// Ran reports per task whether Results holds a real value (the task
	// completed, or the caller marked it replayed via Skip).
	Ran []bool
	// Failures lists the failed tasks in task order.
	Failures []Failure
	// Stopped reports that the sweep quit early: Quit returned true before
	// every task was claimed, so some tasks neither ran nor failed. The
	// journaled prefix is valid; a resume finishes the rest.
	Stopped bool
}

// Supervision configures a supervised trial sweep.
type Supervision[T any] struct {
	// Workers bounds the pool; <= 0 means DefaultWorkers().
	Workers int
	// Root is the root seed; task i runs under DeriveSeed(Root, i).
	Root int64
	// FailFast aborts on the first failure with the lowest-index failing
	// task's error (the Map contract). When false the sweep degrades:
	// failing tasks are quarantined into the report and the rest continue.
	FailFast bool
	// Skip marks tasks already satisfied — replayed from a checkpoint
	// journal. Skipped tasks never run; the caller fills their Results
	// slots afterwards. Nil skips nothing.
	Skip func(task int) bool
	// OnOutcome observes every completed task in completion order,
	// serialized under the supervisor's lock — the write-ahead hook. An
	// error aborts the whole sweep: a journal that cannot record outcomes
	// must not let the run continue as if it could.
	OnOutcome func(Outcome[T]) error
	// Quit, polled before each task is claimed, stops the sweep at the
	// next task boundary when it returns true — the graceful-drain seam.
	// In-flight tasks finish and are journaled; unclaimed tasks are left
	// for a resumed run, and the report's Stopped flag is set. Nil never
	// quits.
	Quit func() bool
}

// SuperviseTrials runs n seeded trials under per-task supervision: panics
// are recovered and attributed (never torn out of an anonymous goroutine),
// each outcome is journaled through OnOutcome as it completes, and failures
// either abort (FailFast) or quarantine the task while the remainder of the
// sweep continues. The returned report is deterministic for any worker
// count; only OnOutcome observes completion order.
func SuperviseTrials[T any](cfg Supervision[T], n int, fn func(trial int, seed int64) (T, error)) (*Supervised[T], error) {
	sup := &Supervised[T]{}
	if n <= 0 {
		return sup, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	sup.Results = make([]T, n)
	sup.Ran = make([]bool, n)
	errs := make([]error, n)
	var (
		mu      sync.Mutex
		hookErr error
		abort   atomic.Bool
	)
	report := func(out Outcome[T]) {
		if cfg.OnOutcome == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if hookErr != nil {
			return
		}
		if err := cfg.OnOutcome(out); err != nil {
			hookErr = fmt.Errorf("parallel: outcome hook: %w", err)
			abort.Store(true)
		}
	}
	run := func(i int) {
		seed := DeriveSeed(cfg.Root, i)
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Task: i, Seed: seed, Seeded: true, Value: r, Stack: debug.Stack()}
				if cfg.FailFast {
					abort.Store(true)
				}
				report(Outcome[T]{Task: i, Seed: seed, Err: errs[i]})
			}
		}()
		v, err := fn(i, seed)
		if err != nil {
			errs[i] = err
			if cfg.FailFast {
				abort.Store(true)
			}
			report(Outcome[T]{Task: i, Seed: seed, Err: err})
			return
		}
		sup.Results[i], sup.Ran[i] = v, true
		report(Outcome[T]{Task: i, Seed: seed, Value: v})
	}
	step := func(i int) {
		if cfg.Skip != nil && cfg.Skip(i) {
			return
		}
		run(i)
	}
	var stopped atomic.Bool
	quit := func() bool {
		if cfg.Quit != nil && cfg.Quit() {
			stopped.Store(true)
			return true
		}
		return false
	}
	if workers == 1 {
		for i := 0; i < n && !abort.Load() && !quit(); i++ {
			step(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !abort.Load() && !quit() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					step(i)
				}
			}()
		}
		wg.Wait()
	}
	sup.Stopped = stopped.Load()
	if hookErr != nil {
		return nil, hookErr
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if cfg.FailFast {
			// The lowest-index failing task's error wins, like Map — and
			// the result slice is withheld so a partial ensemble can't
			// silently feed downstream.
			return nil, err
		}
		sup.Failures = append(sup.Failures, Failure{Task: i, Seed: DeriveSeed(cfg.Root, i), Err: err})
	}
	return sup, nil
}
