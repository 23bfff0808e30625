package core

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file wires the crash-safety layer (DESIGN.md §11) into the study's
// evaluation sweep: RunAllDrainable is RunAll with a write-ahead journal
// at every experiment boundary, keyed resume, and per-task supervision that
// quarantines a panicking experiment or a watchdog-cancelled one instead of
// losing the whole run.

// Fault is one failed experiment in a degraded checkpointed run.
type Fault struct {
	// Task and Name identify the experiment; Seed is its journal replay key.
	Task int
	Name string
	Seed int64
	// Kind is how the failure was journaled: KindQuarantine for panics and
	// plain errors, KindExhausted for watchdog budget cancellations.
	Kind checkpoint.Kind
	// Err is the underlying failure (a *parallel.PanicError preserves the
	// panic value and stack).
	Err error
}

// CheckpointedRun is the outcome of a supervised evaluation sweep.
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
	// Stopped reports that the sweep quit at an experiment boundary before
	// completing — a graceful drain. The journal holds the completed
	// prefix; a resumed run finishes the rest byte-identically.
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
	spec := SpecFromStudy(s, Command{Verb: "experiment", Name: "all"})
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
// nothing), and — unless failFast — continues in degraded mode past a
// panicking or watchdog-cancelled experiment, quarantining it in the report.
// The completed outputs are byte-identical to RunAll's for any worker count.
// quit is polled between experiments: when it returns true the sweep stops
// at the next experiment boundary with the journal ending on a completed
// record and the report's Stopped flag set — the graceful-drain path of the
// partitiond daemon (DESIGN.md §14). A nil quit never stops.
func (s *Study) RunAllDrainable(workers int, j *checkpoint.Journal, resume *checkpoint.Log, failFast bool, quit func() bool) (*CheckpointedRun, error) {
	return s.runCheckpointed(experiments(), workers, j, resume, failFast, quit)
}

// runCheckpointed is the seam under RunAllDrainable: tests inject a
// doctored experiment list (a panicking or non-terminating entry) to prove
// degraded-mode behavior without touching the real evaluation.
func (s *Study) runCheckpointed(exps []experiment, workers int, j *checkpoint.Journal, resume *checkpoint.Log, failFast bool, quit func() bool) (*CheckpointedRun, error) {
	reg := s.Opts.Obs.Registry()
	trace := s.Opts.Obs.Tracer()
	cReplayed := reg.Counter("checkpoint.replayed")
	cResult := reg.Counter("checkpoint.journaled", obs.L("kind", string(checkpoint.KindResult)))
	cQuarantine := reg.Counter("checkpoint.journaled", obs.L("kind", string(checkpoint.KindQuarantine)))
	cExhausted := reg.Counter("checkpoint.journaled", obs.L("kind", string(checkpoint.KindExhausted)))
	fp := s.Fingerprint()
	seedOf := func(task int) int64 { return parallel.DeriveSeed(s.seed, task) }
	replayable := func(task int) bool {
		_, ok := resume.Result(task, seedOf(task))
		return ok
	}
	sup, err := parallel.SuperviseTrials(parallel.Supervision[ExperimentOutput]{
		Workers:  workers,
		Root:     s.seed,
		FailFast: failFast,
		Skip:     replayable,
		Quit:     quit,
		OnOutcome: func(out parallel.Outcome[ExperimentOutput]) error {
			rec := checkpoint.Record{Task: out.Task, Seed: out.Seed, Name: exps[out.Task].name}
			switch {
			case out.Err == nil:
				rec.Kind = checkpoint.KindResult
				rec.Output = []byte(out.Value.Text)
				cResult.Inc()
			case errors.Is(out.Err, checkpoint.ErrBudget):
				rec.Kind = checkpoint.KindExhausted
				rec.Error = out.Err.Error()
				cExhausted.Inc()
			default:
				rec.Kind = checkpoint.KindQuarantine
				rec.Input = fp
				var pe *parallel.PanicError
				if errors.As(out.Err, &pe) {
					rec.Panic = fmt.Sprint(pe.Value)
					rec.Stack = string(pe.Stack)
				} else {
					rec.Error = out.Err.Error()
				}
				cQuarantine.Inc()
			}
			trace.Emit(int64(out.Task), "checkpoint", "journaled",
				obs.F("name", rec.Name),
				obs.F("kind", string(rec.Kind)))
			return j.Append(rec)
		},
	}, len(exps), func(task int, _ int64) (ExperimentOutput, error) {
		e := exps[task]
		text, err := e.run(s)
		if err != nil {
			return ExperimentOutput{}, fmt.Errorf("%s: %w", e.name, err)
		}
		return ExperimentOutput{Name: e.name, Text: text}, nil
	})
	if err != nil {
		return nil, err
	}
	run := &CheckpointedRun{Outputs: sup.Results, Ran: sup.Ran, Stopped: sup.Stopped}
	if run.Outputs == nil {
		// Zero experiments: keep the report's slices non-nil-consistent.
		run.Outputs, run.Ran = []ExperimentOutput{}, []bool{}
	}
	// Fill the replayed slots from the journal — the experiments the
	// supervisor skipped.
	for task := range exps {
		if run.Ran[task] {
			continue
		}
		out, ok := resume.Result(task, seedOf(task))
		if !ok {
			continue
		}
		run.Outputs[task] = ExperimentOutput{Name: exps[task].name, Text: string(out)}
		run.Ran[task] = true
		run.Replayed++
		cReplayed.Inc()
		trace.Emit(int64(task), "checkpoint", "replayed",
			obs.F("name", exps[task].name))
	}
	for _, f := range sup.Failures {
		kind := checkpoint.KindQuarantine
		if errors.Is(f.Err, checkpoint.ErrBudget) {
			kind = checkpoint.KindExhausted
		}
		run.Faults = append(run.Faults, Fault{
			Task: f.Task,
			Name: exps[f.Task].name,
			Seed: f.Seed,
			Kind: kind,
			Err:  f.Err,
		})
	}
	return run, nil
}
