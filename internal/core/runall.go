package core

// The tables and figures of the paper's evaluation are mutually independent
// read-only computations over the study's population, so regenerating the
// whole evaluation is an embarrassingly parallel workload. RunAll fans the
// experiments across workers and returns the rendered outputs in
// presentation order, byte-identical to running them one by one.

// ExperimentOutput is one regenerated table or figure.
type ExperimentOutput struct {
	// Name is the CLI experiment name (table1..table8, figure1..figure8
	// with figure6a/b/c).
	Name string
	// Text is the paper-style rendering.
	Text string
}

// RunAll regenerates every table and figure of the evaluation, fanning the
// experiments across workers (<= 0 means one per CPU; the study's
// configured Workers bound applies inside each experiment as well). The
// outputs come back in presentation order and are identical for any worker
// count. It is RunAllDrainable without a journal, resume log or drain hook,
// failing fast on the first failing experiment.
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func (s *Study) RunAll(workers int) ([]ExperimentOutput, error) {
	run, err := s.RunAllDrainable(workers, nil, nil, false, nil)
	if err != nil {
		return nil, err
	}
	return run.Outputs, nil
}
