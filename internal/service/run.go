// Package service is the shared execution layer behind the partitiond
// daemon and the partition CLI (DESIGN.md §14): one RunSpec entry point that
// dispatches a validated core.Spec to the experiment, attack, defense, and
// export surfaces, plus a resident Service that runs specs as jobs on a
// bounded pool with a content-addressed result cache and checkpointed
// graceful drain. The CLI is a thin spec builder over RunSpec; the daemon
// serializes the same specs over HTTP — both produce byte-identical output
// for the same spec, which is what lets the cache serve either.
package service

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Exit codes shared by the CLI and the daemon's job reports (README "Exit
// codes"): distinct non-zero codes let the crash harness and CI tell a
// degraded-but-complete sweep from a watchdog cancellation without parsing
// stderr.
const (
	ExitClean     = 0
	ExitHardError = 1
	ExitDegraded  = 3
	ExitExhausted = 4
)

// RunOptions carries the invocation context RunSpec cannot learn from the
// spec itself: output-neutral extra study options (an observer), the
// crash-safety journal of a checkpointed `experiment all`, and the drain
// hook.
type RunOptions struct {
	// Extra options are applied on top of the spec's own at study
	// construction. They must be output-neutral (an observer, a worker
	// override) — the spec alone owns the result's identity.
	Extra []core.Option
	// Journal, when non-nil, runs `experiment all` under the crash-safety
	// layer, write-ahead journaling every experiment boundary. Only valid
	// for the experiment/all command.
	Journal *checkpoint.Journal
	// Resume replays the completed prefix of a previous journal (nil
	// replays nothing).
	Resume *checkpoint.Log
	// Degrade quarantines a failing experiment of `experiment all` and
	// carries on instead of aborting the sweep on the first failure (the
	// daemon, and the CLI's -checkpoint with -onfault degrade). The zero
	// value fails fast.
	Degrade bool
	// Quit, polled between experiments of `experiment all`, requests a
	// graceful drain: the sweep stops at the next boundary with the journal
	// ending on a completed record. Nil never quits.
	Quit func() bool
}

// RunResult is a completed (or drained) spec run.
type RunResult struct {
	// Output is the run's stdout text, byte-identical to the pre-service
	// CLI's for every command.
	Output string
	// Exit is the run's exit classification (ExitClean, ExitDegraded,
	// ExitExhausted). Hard errors surface as RunSpec's error instead.
	Exit int
	// Faults lists quarantined/exhausted experiments of a degraded
	// `experiment all`.
	Faults []core.Fault
	// Replayed counts experiments satisfied from the resume journal.
	Replayed int
	// Completed and Total count the experiments of `experiment all` (both
	// zero for every other command).
	Completed int
	Total     int
	// Stopped reports a graceful drain: the run is incomplete, its journal
	// holds the completed prefix, and Output must not be served as a result.
	Stopped bool
}

// RunSpec validates and executes one spec — the single entry point the CLI
// and the daemon share. The spec names the command; opts carry the
// invocation-level context (journal, observer, drain hook).
func RunSpec(spec core.Spec, opts RunOptions) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Journal != nil && spec.Run != core.ExperimentAll {
		return nil, fmt.Errorf("service: checkpointing applies only to `experiment all`, not %q", spec.Run)
	}
	study, err := core.NewFromSpec(spec, opts.Extra...)
	if err != nil {
		return nil, err
	}
	if spec.Run == core.ExperimentAll {
		return runAll(study, opts)
	}
	out, err := study.Run(spec.Run)
	if err != nil {
		return nil, err
	}
	return &RunResult{Output: out, Exit: ExitClean}, nil
}

// runAll is `experiment all`: the study's one evaluation sweep, journaled
// when opts.Journal is set and drainable via opts.Quit. The completed
// outputs are rendered in presentation order; degradation is reported
// through the result, not the output text.
func runAll(study *core.Study, opts RunOptions) (*RunResult, error) {
	run, err := study.RunAllDrainable(study.Opts.Workers, opts.Journal, opts.Resume, opts.Degrade, opts.Quit)
	if err != nil {
		return nil, err
	}
	var out strings.Builder
	for task, o := range run.Outputs {
		if !run.Ran[task] {
			continue
		}
		out.WriteString(o.Text)
		out.WriteString("\n")
	}
	res := &RunResult{
		Output:    out.String(),
		Exit:      ExitClean,
		Faults:    run.Faults,
		Replayed:  run.Replayed,
		Completed: run.Completed(),
		Total:     len(run.Outputs),
		Stopped:   run.Stopped,
	}
	switch {
	case run.Exhausted():
		res.Exit = ExitExhausted
	case len(run.Faults) > 0:
		res.Exit = ExitDegraded
	}
	return res, nil
}
