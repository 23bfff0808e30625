package service

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
)

// SpecFlags is the shared flag surface that shapes a study spec — one
// definition used by both the partition CLI and the partitiond submit
// client, so a flag spelled on either side produces the same spec document
// and therefore the same fingerprint.
type SpecFlags struct {
	seed         *int64
	full         *bool
	workers      *int
	faultsName   *string
	stepBudget   *int
	shards       *int
	shardWorkers *int
}

// RegisterSpecFlags installs the spec-shaping flags on fs.
func RegisterSpecFlags(fs *flag.FlagSet) *SpecFlags {
	return &SpecFlags{
		seed:         fs.Int64("seed", 1, "generation seed"),
		full:         fs.Bool("full", false, "paper-scale experiment windows (slow)"),
		workers:      fs.Int("workers", 0, "parallel fan-out bound (0 = one per CPU, 1 = sequential); output is identical either way"),
		faultsName:   fs.String("faults", "", "fault scenario every simulation runs under (stable, churny, flaky, hijack-recovery); empty = no faults"),
		stepBudget:   fs.Int("stepbudget", 0, "grid-simulation step watchdog: cancel any replicate exceeding this many steps (0 disables); exhaustion exits 1, or 4 from experiment all -checkpoint"),
		shards:       fs.Int("shards", 0, "run grid simulations on the sharded engine with this many shards (0 = legacy engine); output is identical for every count >= 1"),
		shardWorkers: fs.Int("shardworkers", 0, "goroutines ticking shards inside one sharded world (0 = one per CPU); output is identical either way"),
	}
}

// Spec builds the validated spec the parsed flags describe for the given
// command. The name must be one the verb knows, spelled exactly.
func (f *SpecFlags) Spec(verb, name string) (core.Spec, error) {
	if *f.shardWorkers != 0 && *f.shards == 0 {
		return core.Spec{}, fmt.Errorf("-shardworkers needs -shards >= 1")
	}
	opts := []core.Option{core.WithWorkers(*f.workers)}
	if *f.full {
		opts = append(opts, core.WithFull())
	}
	if *f.stepBudget > 0 {
		opts = append(opts, core.WithStepBudget(*f.stepBudget))
	}
	if *f.shards > 0 {
		opts = append(opts, core.WithShards(*f.shards), core.WithShardWorkers(*f.shardWorkers))
	}
	if *f.faultsName != "" {
		scenario, err := faults.Preset(*f.faultsName)
		if err != nil {
			return core.Spec{}, err
		}
		opts = append(opts, core.WithFaults(scenario))
	}
	spec := core.SpecFromOptions(*f.seed, opts...)
	spec.Run = core.Command{Verb: verb, Name: name}
	if err := spec.Validate(); err != nil {
		return core.Spec{}, err
	}
	if _, err := resolve(spec.Run); err != nil {
		return core.Spec{}, err
	}
	return spec, nil
}
