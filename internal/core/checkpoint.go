package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file is the study's evaluation sweep and the crash-safety layer
// (DESIGN.md §11) wired into it: one parallel.Map over the experiments
// that, when asked, replays from a resume log, write-ahead journals every
// experiment at its boundary, stops at a boundary for a graceful drain, and
// quarantines a panicking experiment or a watchdog-cancelled one instead of
// losing the whole run. RunAll is its journal-less, fail-fast call.

// Fault is one failed experiment in a degraded checkpointed run.
type Fault struct {
	// Task and Name identify the experiment; Seed is its journal replay key.
	Task int
	Name string
	Seed int64
	// Kind classifies the failure, as the journal records it:
	// KindQuarantine for panics and plain errors, KindExhausted for
	// watchdog budget cancellations.
	Kind checkpoint.Kind
	// Err is the underlying failure (a *parallel.PanicError preserves the
	// panic value and stack).
	Err error
}

// CheckpointedRun is the outcome of an evaluation sweep.
type CheckpointedRun struct {
	// Outputs has one slot per experiment in presentation order; consult
	// Ran — a faulted experiment's slot is zero.
	Outputs []ExperimentOutput
	// Ran reports per experiment whether Outputs holds a real rendering
	// (freshly run or replayed from the journal).
	Ran []bool
	// Replayed counts experiments satisfied from the resume log without
	// re-running.
	Replayed int
	// Faults lists the quarantined and exhausted experiments, task order.
	Faults []Fault
	// Stopped reports that the sweep quit at an experiment boundary and
	// left at least one experiment unrun — a graceful drain. The journal
	// holds the completed experiments; a resumed run finishes the rest
	// byte-identically.
	Stopped bool
}

// Completed reports how many experiments produced output.
func (r *CheckpointedRun) Completed() int {
	n := 0
	for _, ok := range r.Ran {
		if ok {
			n++
		}
	}
	return n
}

// Exhausted reports whether any fault was a watchdog budget cancellation.
func (r *CheckpointedRun) Exhausted() bool {
	for _, f := range r.Faults {
		if f.Kind == checkpoint.KindExhausted {
			return true
		}
	}
	return false
}

// Fingerprint identifies the study's evaluation run for the checkpoint
// journal: the study-spec fingerprint of the `experiment all` command over
// this study's configuration (checkpoint.StudyFingerprint of the canonical
// spec.v1 document). Workers and the observer never reach the canonical
// form — output is byte-identical across worker counts and with or without
// instrumentation, so a journal written at -workers 8 resumes correctly at
// -workers 1 — and because the partitiond result cache keys on the very
// same spec fingerprint, a journal and the cache entry of the run it
// checkpointed always agree.
func (s *Study) Fingerprint() string {
	spec := SpecFromStudy(s, ExperimentAll)
	fp, err := spec.Fingerprint()
	if err != nil {
		// A study that was constructed at all has a valid spec; the only
		// way here is an unrepresentable faults scenario, which no Options
		// path can build.
		panic(fmt.Sprintf("core: study spec fingerprint: %v", err))
	}
	return fp
}

// RunAllDrainable regenerates the evaluation like RunAll, but journals
// every experiment outcome through j as it completes (nil j disables
// journaling), replays completed experiments from resume (nil resume replays
// nothing), and — when degrade is set — continues past a panicking or
// watchdog-cancelled experiment, quarantining it in the report; otherwise
// the first failure aborts the sweep with the lowest-index failing
// experiment's error. The completed outputs are byte-identical to RunAll's
// for any worker count. quit is polled before each experiment runs: once it
// returns true no further experiment starts, in-flight ones finish and are
// journaled, and the report's Stopped flag is set if any was left unrun —
// the graceful-drain path of the partitiond daemon (DESIGN.md §14). A nil
// quit never stops.
func (s *Study) RunAllDrainable(workers int, j *checkpoint.Journal, resume *checkpoint.Log, degrade bool, quit func() bool) (*CheckpointedRun, error) {
	return s.runCheckpointed(evaluation, workers, j, resume, degrade, quit)
}

// sweepSlot is one experiment's part of a sweep's report.
type sweepSlot struct {
	out      ExperimentOutput
	ran      bool
	replayed bool
	fault    *Fault
}

// sweepEvent is the checkpoint trace event a sweep task emits: "replayed",
// "journaled", or none (an empty typ).
type sweepEvent struct {
	typ    string
	fields []obs.Field
}

// runCheckpointed is the seam under RunAllDrainable: tests inject a
// doctored experiment list (a panicking or non-terminating entry) to prove
// degraded-mode behavior without touching the real evaluation. Task i runs
// under the seed DeriveSeed(study seed, i), the key its journal record
// replays by.
func (s *Study) runCheckpointed(exps []experiment, workers int, j *checkpoint.Journal, resume *checkpoint.Log, degrade bool, quit func() bool) (*CheckpointedRun, error) {
	trace := s.obs.Tracer()
	var (
		fp        string
		cReplayed *obs.Counter
		journaled map[checkpoint.Kind]*obs.Counter
	)
	if j != nil {
		fp = s.Fingerprint()
		reg := s.obs.Registry()
		cReplayed = reg.Counter("checkpoint.replayed")
		journaled = map[checkpoint.Kind]*obs.Counter{}
		for _, k := range []checkpoint.Kind{checkpoint.KindResult, checkpoint.KindQuarantine, checkpoint.KindExhausted} {
			journaled[k] = reg.Counter("checkpoint.journaled", obs.L("kind", string(k)))
		}
	}
	// mu serializes the journal and its counters; journalErr, once set,
	// keeps every later record out of a journal that failed to record
	// one. events holds each task's checkpoint trace event, emitted in
	// task order once the sweep is over: emitted as tasks finish, they
	// would interleave run to run with the simulation events of the
	// experiments still running.
	var (
		mu         sync.Mutex
		journalErr error
		stopped    atomic.Bool
		events     = make([]sweepEvent, len(exps))
	)
	record := func(rec checkpoint.Record) error {
		mu.Lock()
		defer mu.Unlock()
		if journalErr != nil {
			return journalErr
		}
		if err := j.Append(rec); err != nil {
			journalErr = fmt.Errorf("core: journal %s: %w", rec.Name, err)
			return journalErr
		}
		journaled[rec.Kind].Inc()
		events[rec.Task] = sweepEvent{typ: "journaled", fields: []obs.Field{
			obs.F("name", rec.Name),
			obs.F("kind", string(rec.Kind)),
		}}
		return nil
	}
	slots, err := parallel.Map(workers, len(exps), func(task int) (sweepSlot, error) {
		e := exps[task]
		seed := parallel.DeriveSeed(s.seed, task)
		if text, ok := resume.Result(task, seed); ok {
			events[task] = sweepEvent{typ: "replayed", fields: []obs.Field{obs.F("name", e.name)}}
			return sweepSlot{out: ExperimentOutput{Name: e.name, Text: string(text)}, ran: true, replayed: true}, nil
		}
		if stopped.Load() || (quit != nil && quit()) {
			stopped.Store(true)
			return sweepSlot{}, nil
		}
		text, runErr := s.runExperiment(e, task, seed)
		kind := faultKind(runErr)
		if j != nil {
			rec := checkpoint.Record{Task: task, Seed: seed, Name: e.name, Kind: kind}
			var pe *parallel.PanicError
			switch {
			case kind == checkpoint.KindResult:
				rec.Output = []byte(text)
			case kind == checkpoint.KindExhausted:
				rec.Error = runErr.Error()
			case errors.As(runErr, &pe):
				rec.Input, rec.Panic, rec.Stack = fp, fmt.Sprint(pe.Value), string(pe.Stack)
			default:
				rec.Input, rec.Error = fp, runErr.Error()
			}
			if err := record(rec); err != nil {
				return sweepSlot{}, err
			}
		}
		switch {
		case runErr == nil:
			return sweepSlot{out: ExperimentOutput{Name: e.name, Text: text}, ran: true}, nil
		case degrade:
			return sweepSlot{fault: &Fault{Task: task, Name: e.name, Seed: seed, Kind: kind, Err: runErr}}, nil
		}
		return sweepSlot{}, runErr
	})
	for task, ev := range events {
		if ev.typ != "" {
			trace.Emit(int64(task), "checkpoint", ev.typ, ev.fields...)
		}
	}
	if err != nil {
		return nil, err
	}
	run := &CheckpointedRun{
		Outputs: make([]ExperimentOutput, len(exps)),
		Ran:     make([]bool, len(exps)),
		Stopped: stopped.Load(),
	}
	for task, slot := range slots {
		run.Outputs[task], run.Ran[task] = slot.out, slot.ran
		if slot.fault != nil {
			run.Faults = append(run.Faults, *slot.fault)
		}
		if slot.replayed {
			run.Replayed++
			cReplayed.Inc()
		}
	}
	return run, nil
}

// runExperiment renders one experiment of a sweep, converting a panic into
// a *parallel.PanicError attributed with the task and its seed, so the
// failing experiment can be quarantined and reproduced.
func (s *Study) runExperiment(e experiment, task int, seed int64) (text string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &parallel.PanicError{Task: task, Seed: seed, Seeded: true, Value: r, Stack: debug.Stack()}
		}
	}()
	text, err = e.run(s)
	if err != nil {
		return "", fmt.Errorf("%s: %w", e.name, err)
	}
	return text, nil
}

// faultKind classifies an experiment's outcome as its journal record does:
// a result, a watchdog budget exhaustion, or a quarantined failure.
func faultKind(err error) checkpoint.Kind {
	switch {
	case err == nil:
		return checkpoint.KindResult
	case errors.Is(err, checkpoint.ErrBudget):
		return checkpoint.KindExhausted
	}
	return checkpoint.KindQuarantine
}
