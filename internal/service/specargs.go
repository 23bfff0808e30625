package service

import (
	"flag"

	"repro/internal/core"
	"repro/internal/faults"
)

// SpecFlags is the shared flag surface that shapes a study spec — one
// definition used by both the partition CLI and the partitiond submit
// client, so a flag spelled on either side produces the same spec document
// and therefore the same fingerprint.
type SpecFlags struct {
	seed       *int64
	full       *bool
	workers    *int
	faultsName *string
	stepBudget *int
}

// RegisterSpecFlags installs the spec-shaping flags on fs.
func RegisterSpecFlags(fs *flag.FlagSet) *SpecFlags {
	return &SpecFlags{
		seed:       fs.Int64("seed", 1, "generation seed"),
		full:       fs.Bool("full", false, "paper scale: 60-day traces, 100x100 grid, 10,000 live nodes (experiment all: seconds)"),
		workers:    fs.Int("workers", 0, "parallel fan-out bound (0 = one per CPU, 1 = sequential); output is identical either way"),
		faultsName: fs.String("faults", "", "fault scenario every simulation runs under (stable, churny, flaky, hijack-recovery); empty = no faults"),
		stepBudget: fs.Int("stepbudget", 0, "grid-simulation step watchdog: cancel any replicate exceeding this many steps (0 disables); exhaustion exits 1, or 4 from experiment all -checkpoint"),
	}
}

// Spec builds the validated spec the parsed flags describe for the given
// command. The name must be one the verb knows, spelled exactly.
func (f *SpecFlags) Spec(verb, name string) (core.Spec, error) {
	var opts core.Options
	if *f.full {
		opts = core.Full()
	}
	opts.Workers, opts.StepBudget = *f.workers, *f.stepBudget
	if *f.faultsName != "" {
		scenario, err := faults.Preset(*f.faultsName)
		if err != nil {
			return core.Spec{}, err
		}
		opts.Faults = scenario
	}
	spec := core.Spec{Schema: core.SpecSchemaV1, Run: core.Command{Verb: verb, Name: name}, Seed: *f.seed, Options: opts}
	if err := spec.Validate(); err != nil {
		return core.Spec{}, err
	}
	return spec, nil
}
