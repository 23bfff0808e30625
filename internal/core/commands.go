package core

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/attack"
)

// The command table: every runnable (verb, name) pair of the reproduction,
// declared once. Spec.Validate admits exactly these commands, so the CLI,
// partitiond and service.RunSpec refuse an unknown or wrong-case name with
// one error; Study.Run dispatches through the table; and the CLI's usage
// text and every refusal's name list are rendered from it.

// ExperimentAll is `experiment all`, the whole evaluation as one sweep
// (RunAllDrainable), which alone of the commands can be checkpointed.
var ExperimentAll = Command{Verb: "experiment", Name: "all"}

// verbs are the spec verbs, in the CLI's order.
var verbs = []string{"experiment", "attack", "defend", "export"}

// experiment pairs a name with its renderer.
type experiment struct {
	name string
	run  func(*Study) (string, error)
}

// evaluation is the paper's evaluation in presentation order: what
// `experiment all` runs. Every runner is read-only on the study (the
// conventions §6 contract), which is what makes the fan-out safe.
var evaluation = []experiment{
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

// command is one table entry. run renders the command's output; it is nil
// for ExperimentAll, which runs as the evaluation sweep.
type command struct {
	Command
	run func(*Study) (string, error)
}

// commands is the table, in the CLI's order: the evaluation, the figure6
// alias of figure6a, the heal study (which sweeps the fault presets itself,
// so it is not part of the evaluation, whose golden output must not move,
// and ignores the study's fault scenario) and `all`; one attack per plan of
// attack's registry; the §VI countermeasures (defend.go); and the CSV
// exports of the data figures and tables (export.go).
var commands = func() []command {
	var t []command
	add := func(verb, name string, run func(*Study) (string, error)) {
		t = append(t, command{Command{Verb: verb, Name: name}, run})
	}
	for _, e := range evaluation {
		add("experiment", e.name, e.run)
	}
	add("experiment", "figure6", figure6Variant(Figure6a))
	add("experiment", "healstudy", renderErr((*Study).HealStudy))
	t = append(t, command{Command: ExperimentAll})
	for _, name := range attack.PlanNames() {
		add("attack", name, func(s *Study) (string, error) { return s.runAttack(name) })
	}
	add("defend", "blockaware", written(blockAwareDemo))
	add("defend", "stratum", written(stratumDemo))
	add("defend", "routeguard", written(routeGuardDemo))
	add("defend", "placement", written(placementDemo))
	add("export", "figure3", written((*Study).ExportFigure3))
	add("export", "figure4", written((*Study).ExportFigure4))
	add("export", "figure6a", exportFigure6(Figure6a))
	add("export", "figure6b", exportFigure6(Figure6b))
	add("export", "figure6c", exportFigure6(Figure6c))
	add("export", "figure8", written((*Study).ExportFigure8))
	add("export", "table5", written((*Study).ExportTableV))
	add("export", "table6", written((*Study).ExportTableVI))
	return t
}()

// Commands lists every runnable command in table order.
func Commands() []Command {
	out := make([]Command, len(commands))
	for i, c := range commands {
		out[i] = c.Command
	}
	return out
}

// lookup finds cmd's table entry. Names match exactly, so a spelling
// outside the table is refused rather than given a cache key of its own;
// the refusal lists what the verb takes.
func lookup(cmd Command) (command, error) {
	if !slices.Contains(verbs, cmd.Verb) {
		return command{}, fmt.Errorf("core: unknown spec verb %q (%s)", cmd.Verb, strings.Join(verbs, ", "))
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.Command == cmd })
	if i >= 0 {
		return commands[i], nil
	}
	var names []string
	for _, c := range commands {
		if c.Verb == cmd.Verb {
			names = append(names, c.Name)
		}
	}
	return command{}, fmt.Errorf("core: unknown command %q (%s takes %s)", cmd.String(), cmd.Verb, strings.Join(names, ", "))
}

// Run renders one command of the table on the study. ExperimentAll is the
// evaluation sweep, which RunAll and RunAllDrainable run.
func (s *Study) Run(cmd Command) (string, error) {
	c, err := lookup(cmd)
	if err != nil {
		return "", err
	}
	if c.run == nil {
		return "", fmt.Errorf("core: %s runs as the evaluation sweep (RunAllDrainable)", cmd)
	}
	return c.run(s)
}

// runAttack runs one plan of the attack registry on the study.
func (s *Study) runAttack(name string) (string, error) {
	res, err := attack.RunPlan(name, attack.Env{
		Pop:          s.Pop,
		NetworkNodes: s.Opts.NetworkNodes,
		Seed:         s.seed,
		Obs:          s.obs,
		Faults:       s.Opts.Faults,
		NewSim:       s.NewSimFromPopulation,
	})
	return res.Summary, err
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
	return renderErr(func(s *Study) (*Figure6Result, error) { return s.Figure6(v) })
}

// written adapts a runner that writes its output to the (string, error)
// shape.
func written(run func(*Study, io.Writer) error) func(*Study) (string, error) {
	return func(s *Study) (string, error) {
		var b strings.Builder
		if err := run(s, &b); err != nil {
			return "", err
		}
		return b.String(), nil
	}
}

func exportFigure6(v Figure6Variant) func(*Study) (string, error) {
	return written(func(s *Study, w io.Writer) error { return s.ExportFigure6(w, v) })
}
