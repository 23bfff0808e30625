package core

import (
	"fmt"

	"repro/internal/parallel"
)

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

// experiment pairs a name with its renderer.
type experiment struct {
	name string
	run  func(*Study) (string, error)
}

// experiments lists the whole evaluation in presentation order. Every
// runner is read-only on the study (the conventions §6 contract), which is
// what makes the fan-out safe.
func experiments() []experiment {
	return []experiment{
		{"table1", func(s *Study) (string, error) { return s.TableI().Render(), nil }},
		{"table2", func(s *Study) (string, error) { return s.TableII().Render(), nil }},
		{"table3", renderErr((*Study).TableIII)},
		{"table4", renderErr((*Study).TableIV)},
		{"table5", renderErr((*Study).TableV)},
		{"table6", renderErr((*Study).TableVI)},
		{"table7", renderErr((*Study).TableVII)},
		{"table8", func(s *Study) (string, error) { return s.TableVIII().Render(), nil }},
		{"figure1", (*Study).Figure1Demo},
		{"figure2", (*Study).Figure2Demo},
		{"figure3", renderErr((*Study).Figure3)},
		{"figure4", renderErr((*Study).Figure4)},
		{"figure5", func(s *Study) (string, error) { _, out, err := s.Figure5Demo(); return out, err }},
		{"figure6a", figure6Variant(Figure6a)},
		{"figure6b", figure6Variant(Figure6b)},
		{"figure6c", figure6Variant(Figure6c)},
		{"figure7", renderErr((*Study).Figure7)},
		{"figure8", renderErr((*Study).Figure8)},
	}
}

// renderable is any experiment result with a paper-style rendering.
type renderable interface{ Render() string }

// renderErr adapts a (result, error) runner to the (string, error) shape.
func renderErr[R renderable](run func(*Study) (R, error)) func(*Study) (string, error) {
	return func(s *Study) (string, error) {
		r, err := run(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

func figure6Variant(v Figure6Variant) func(*Study) (string, error) {
	return func(s *Study) (string, error) {
		r, err := s.Figure6(v)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// Experiment renders one named experiment: a name of the evaluation,
// figure6 (an alias of figure6a) or healstudy. The heal study sweeps the
// fault presets itself, so it is not part of RunAll (whose golden output
// must not move) and ignores the study's fault scenario.
func (s *Study) Experiment(name string) (string, error) {
	run := lookupExperiment(name)
	if run == nil {
		return "", fmt.Errorf("unknown experiment %q", name)
	}
	return run(s)
}

// IsExperiment reports whether Experiment renders name. Names match exactly.
func IsExperiment(name string) bool { return lookupExperiment(name) != nil }

func lookupExperiment(name string) func(*Study) (string, error) {
	switch name {
	case "figure6":
		name = "figure6a"
	case "healstudy":
		return renderErr((*Study).HealStudy)
	}
	for _, e := range experiments() {
		if e.name == name {
			return e.run
		}
	}
	return nil
}

// RunAll regenerates every table and figure of the evaluation, fanning the
// experiments across workers (<= 0 means one per CPU; the study's
// configured Workers bound applies inside each experiment as well). The
// outputs come back in presentation order and are identical for any worker
// count.
func (s *Study) RunAll(workers int) ([]ExperimentOutput, error) {
	return parallel.Sweep(workers, experiments(),
		func(_ int, e experiment) (ExperimentOutput, error) {
			text, err := e.run(s)
			if err != nil {
				return ExperimentOutput{}, fmt.Errorf("%s: %w", e.name, err)
			}
			return ExperimentOutput{Name: e.name, Text: text}, nil
		})
}
