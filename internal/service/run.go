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
	"io"
	"slices"
	"strings"

	"repro/internal/attack"
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
	// FailFast aborts the checkpointed sweep on the first fault instead of
	// quarantining it (the CLI's -onfault fail).
	FailFast bool
	// Quit, polled between experiments of a checkpointed sweep, requests a
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
	// checkpointed sweep.
	Faults []core.Fault
	// Replayed counts experiments satisfied from the resume journal.
	Replayed int
	// Completed and Total count the checkpointed sweep's experiments (both
	// zero for plain runs, where completion is all-or-error).
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
	if opts.Journal != nil && (spec.Run.Verb != "experiment" || spec.Run.Name != "all") {
		return nil, fmt.Errorf("service: checkpointing applies only to `experiment all`, not %q", spec.Run)
	}
	run, err := resolve(spec.Run)
	if err != nil {
		return nil, err
	}
	study, err := core.NewFromSpec(spec, opts.Extra...)
	if err != nil {
		return nil, err
	}
	var out strings.Builder
	if opts.Journal != nil {
		return runAllCheckpointed(study, &out, opts)
	}
	if err := run(study, &out); err != nil {
		return nil, err
	}
	return &RunResult{Output: out.String(), Exit: ExitClean}, nil
}

// runAllCheckpointed is `experiment all` under the crash-safety layer,
// drainable via opts.Quit. The completed outputs are rendered exactly like
// the plain sweep; degradation is reported through the result, not the
// output text.
func runAllCheckpointed(study *core.Study, out *strings.Builder, opts RunOptions) (*RunResult, error) {
	run, err := study.RunAllDrainable(study.Opts.Workers, opts.Journal, opts.Resume, opts.FailFast, opts.Quit)
	if err != nil {
		return nil, err
	}
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

// resolve finds the runner a command's verb dispatches its name to. Names
// match exactly, so a spelling outside the registry is refused rather than
// given a cache key of its own. Submit, RunSpec and the CLI's spec builder
// all call it before anything is built or stored, so the CLI and the
// daemon refuse a bad name with the same error.
func resolve(cmd core.Command) (func(*core.Study, io.Writer) error, error) {
	switch cmd.Verb {
	case "experiment":
		if cmd.Name == "all" {
			return runAll, nil
		}
		if !core.IsExperiment(cmd.Name) {
			return nil, fmt.Errorf("unknown experiment %q", cmd.Name)
		}
		return func(study *core.Study, w io.Writer) error {
			out, err := study.Experiment(cmd.Name)
			if err != nil {
				return err
			}
			fmt.Fprint(w, out)
			return nil
		}, nil
	case "attack":
		if !slices.Contains(attack.PlanNames(), cmd.Name) {
			return nil, fmt.Errorf("unknown attack plan %q (%s)", cmd.Name, strings.Join(attack.PlanNames(), ", "))
		}
		return func(study *core.Study, w io.Writer) error { return runAttack(study, cmd.Name, w) }, nil
	case "defend":
		if run, ok := defenses[cmd.Name]; ok {
			return run, nil
		}
		return nil, fmt.Errorf("unknown defense %q (blockaware, stratum, routeguard, placement)", cmd.Name)
	case "export":
		if run, ok := exports[cmd.Name]; ok {
			return run, nil
		}
		return nil, fmt.Errorf("unknown export %q (figure3, figure4, figure6a/b/c, figure8, table5, table6)", cmd.Name)
	}
	return nil, fmt.Errorf("unknown verb %q", cmd.Verb)
}

// runAll renders the full sweep, byte-identical to the pre-service CLI.
func runAll(study *core.Study, w io.Writer) error {
	outputs, err := study.RunAll(study.Opts.Workers)
	if err != nil {
		return err
	}
	for _, out := range outputs {
		fmt.Fprint(w, out.Text)
		fmt.Fprintln(w)
	}
	return nil
}

// runAttack runs one plan of the attack package's registry.
func runAttack(study *core.Study, name string, w io.Writer) error {
	plan, err := attack.NewPlan(name, attack.Env{
		Pop:          study.Pop,
		NetworkNodes: study.Opts.NetworkNodes,
		Seed:         study.Seed(),
		Obs:          study.Observer(),
		Faults:       study.Opts.Faults,
		NewSim:       study.NewSimFromPopulation,
	})
	if err != nil {
		return err
	}
	res, err := plan.Run(nil, study.Observer().Registry())
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Summary())
	return nil
}

// exports writes machine-readable CSV for the data figures and tables.
var exports = map[string]func(*core.Study, io.Writer) error{
	"figure3":  (*core.Study).ExportFigure3,
	"figure4":  (*core.Study).ExportFigure4,
	"figure6a": exportFigure6(core.Figure6a),
	"figure6b": exportFigure6(core.Figure6b),
	"figure6c": exportFigure6(core.Figure6c),
	"figure8":  (*core.Study).ExportFigure8,
	"table5":   (*core.Study).ExportTableV,
	"table6":   (*core.Study).ExportTableVI,
}

func exportFigure6(v core.Figure6Variant) func(*core.Study, io.Writer) error {
	return func(study *core.Study, w io.Writer) error { return study.ExportFigure6(w, v) }
}
