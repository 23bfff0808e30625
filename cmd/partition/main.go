// Command partition is the main CLI of the reproduction: it regenerates
// every table and figure of the paper and runs the four partitioning
// attacks plus their countermeasures on the simulated network. Every verb
// accepts -faults to run under a deterministic fault scenario (node churn,
// link flaps/blackholes, message chaos — DESIGN.md §10), and `experiment
// healstudy` sweeps all the presets over the partition-heal arc.
//
// The CLI is a thin spec builder (DESIGN.md §14): flags become a
// core.Spec — the same serializable document the partitiond daemon accepts
// — and every command dispatches through service.RunSpec, the entry point
// the daemon uses, so CLI and daemon output are byte-identical for the same
// spec. `partition spec <verb> <name>` prints the spec document instead of
// running it, ready to POST to a daemon.
//
// `experiment all` additionally supports the crash-safety layer of
// DESIGN.md §11: -checkpoint DIR write-ahead journals every experiment as
// it completes, -resume replays the completed prefix of a killed run, and
// -stepbudget arms the grid-simulation watchdog. Exit codes distinguish
// outcomes: 0 clean, 1 hard error, 3 degraded-complete (some experiments
// quarantined), 4 watchdog budget exhausted. Codes 3 and 4 come only from
// `experiment all -checkpoint`; a single experiment whose budget runs out
// exits 1.
//
// Usage:
//
//	partition experiment <name> [-seed N] [-full] [-faults SCENARIO]
//	partition experiment all [-checkpoint DIR] [-resume] [-onfault degrade|fail] [-stepbudget N]
//	partition attack <plan> [-seed N] [-faults SCENARIO]
//	partition defend <countermeasure> [-seed N]
//	partition export <name> [-seed N]   CSV to stdout
//	partition spec <verb> <name> [flags]   print the spec JSON without running
//
// The names each verb takes are the entries of core's command table (the
// tables and figures, healstudy and all; the attack plans; the §VI
// countermeasures; the CSV exports). `partition` without arguments lists
// them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		if code == service.ExitClean {
			code = service.ExitHardError
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	if len(args) < 2 {
		return service.ExitHardError, usageError()
	}
	verb, noun := args[0], args[1]
	specOnly := verb == "spec"
	if specOnly {
		if len(args) < 3 {
			return service.ExitHardError, usageError()
		}
		verb, noun = args[1], args[2]
		args = args[1:]
	}
	// Registered names are lower case; `experiment Table1` means table1.
	noun = strings.ToLower(noun)
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	sf := service.RegisterSpecFlags(fs)
	tracePath := fs.String("trace", "", "record the sim-time event trace and write it as JSONL to this path")
	metrics := fs.Bool("metrics", false, "print the deterministic metrics snapshot after the command output")
	ckptDir := fs.String("checkpoint", "", "journal directory for `experiment all`: write-ahead checkpoint every experiment at its boundary")
	resume := fs.Bool("resume", false, "replay completed experiments from the -checkpoint journal instead of re-running them")
	onFault := fs.String("onfault", "degrade", "failed-experiment policy under -checkpoint: degrade (quarantine and continue) or fail (abort the sweep)")
	if err := fs.Parse(args[2:]); err != nil {
		return service.ExitHardError, err
	}
	switch *onFault {
	case "degrade", "fail":
	default:
		return service.ExitHardError, fmt.Errorf("unknown -onfault policy %q (degrade, fail)", *onFault)
	}
	if (*ckptDir != "" || *resume) && (core.Command{Verb: verb, Name: noun}) != core.ExperimentAll {
		return service.ExitHardError, fmt.Errorf("-checkpoint/-resume apply only to `experiment all`")
	}
	if *resume && *ckptDir == "" {
		return service.ExitHardError, fmt.Errorf("-resume needs -checkpoint DIR")
	}
	onFaultSet := false
	fs.Visit(func(f *flag.Flag) { onFaultSet = onFaultSet || f.Name == "onfault" })
	if onFaultSet && *ckptDir == "" {
		return service.ExitHardError, fmt.Errorf("-onfault needs -checkpoint DIR")
	}
	spec, err := sf.Spec(verb, noun)
	if err != nil {
		if !slices.ContainsFunc(core.Commands(), func(c core.Command) bool { return c.Verb == verb }) {
			return service.ExitHardError, usageError()
		}
		return service.ExitHardError, err
	}
	if specOnly {
		doc, err := spec.CanonicalJSON()
		if err != nil {
			return service.ExitHardError, err
		}
		fmt.Printf("%s\n", doc)
		return service.ExitClean, nil
	}
	var observer *obs.Observer
	switch {
	case *tracePath != "":
		observer = obs.New(0)
	case *metrics:
		observer = obs.NewMetricsOnly()
	}
	opts := service.RunOptions{}
	if observer != nil {
		opts.Extra = append(opts.Extra, core.WithObserver(observer))
	}
	code := service.ExitClean
	var journalPath string
	if *ckptDir != "" {
		journal, log, path, err := openJournal(spec, *ckptDir, *resume)
		if err != nil {
			return service.ExitHardError, err
		}
		journalPath = path
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "partition: close journal:", cerr)
			}
		}()
		opts.Journal, opts.Resume, opts.Degrade = journal, log, *onFault == "degrade"
	}
	res, err := service.RunSpec(spec, opts)
	if err != nil {
		return service.ExitHardError, err
	}
	fmt.Print(res.Output)
	if res.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "partition: replayed %d completed experiments from %s\n", res.Replayed, journalPath)
	}
	if len(res.Faults) > 0 {
		// Quarantine report: every fault with its replay key, so a follow-up
		// run can reproduce the failure in isolation.
		for _, f := range res.Faults {
			fmt.Fprintf(os.Stderr, "partition: experiment %q (task %d, seed %d) %s: %v\n",
				f.Name, f.Task, f.Seed, f.Kind, f.Err)
		}
		fmt.Fprintf(os.Stderr, "partition: degraded run: %d/%d experiments completed, %d quarantined (journal: %s)\n",
			res.Completed, res.Total, len(res.Faults), journalPath)
	}
	code = res.Exit
	return code, writeObservations(observer, *tracePath, *metrics)
}

// openJournal places the crash-safety journal at <dir>/<fingerprint>.ckpt,
// where the fingerprint is the spec's — the same key the partitiond result
// cache uses, so a CLI journal and a daemon job of the same spec agree.
func openJournal(spec core.Spec, dir string, resume bool) (*checkpoint.Journal, *checkpoint.Log, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, "", err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, nil, "", err
	}
	path := filepath.Join(dir, fp+".ckpt")
	if _, statErr := os.Stat(path); resume && statErr == nil {
		j, log, err := checkpoint.ResumeJournal(path, fp, checkpoint.JournalOptions{})
		if err != nil {
			return nil, nil, "", err
		}
		if log.Truncated {
			fmt.Fprintf(os.Stderr, "partition: journal %s had a corrupt tail; resuming from the %d-record valid prefix\n",
				path, len(log.Records))
		}
		return j, log, path, nil
	}
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return nil, nil, "", err
	}
	j, err := checkpoint.CreateJournal(path, fp, checkpoint.JournalOptions{Spec: canonical})
	if err != nil {
		return nil, nil, "", err
	}
	return j, nil, path, nil
}

// writeObservations exports what the observer recorded: the metrics
// snapshot to stdout (after the command's own output) and the event trace
// as JSONL to the requested path.
func writeObservations(observer *obs.Observer, tracePath string, metrics bool) error {
	if metrics {
		fmt.Print(observer.Registry().Snapshot().Render())
	}
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := observer.Tracer().WriteJSONL(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// usageError lists every command of the command table, grouped by verb.
func usageError() error {
	var b strings.Builder
	b.WriteString("usage: partition <experiment|attack|defend|export|spec> <name> [-seed N] [-full] [-workers N] [-faults SCENARIO]")
	verb := ""
	for _, c := range core.Commands() {
		if c.Verb == verb {
			b.WriteString(", " + c.Name)
			continue
		}
		verb = c.Verb
		fmt.Fprintf(&b, "\n  %-11s %s", verb+":", c.Name)
	}
	b.WriteString("\n  spec:       print the canonical spec JSON for <verb> <name> instead of running it\n" +
		"  export writes CSV to stdout; -faults runs every simulation under a fault scenario: " + strings.Join(faults.PresetNames(), ", "))
	return errors.New(b.String())
}
