package main

import (
	"bytes"
	"strings"

	"repro/internal/core"
)

// experiment is one table or figure, called through its Study method so a
// traced pass can time each one on its own.
type experiment struct {
	name string
	run  func(*core.Study) (string, error)
}

type renderable interface{ Render() string }

func rendered[R renderable](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// allExperiments is `experiment all` in presentation order; joined with a
// newline after each, the outputs are the sweep's output.
var allExperiments = []experiment{
	{"table1", func(s *core.Study) (string, error) { return s.TableI().Render(), nil }},
	{"table2", func(s *core.Study) (string, error) { return s.TableII().Render(), nil }},
	{"table3", func(s *core.Study) (string, error) { return rendered(s.TableIII()) }},
	{"table4", func(s *core.Study) (string, error) { return rendered(s.TableIV()) }},
	{"table5", func(s *core.Study) (string, error) { return rendered(s.TableV()) }},
	{"table6", func(s *core.Study) (string, error) { return rendered(s.TableVI()) }},
	{"table7", func(s *core.Study) (string, error) { return rendered(s.TableVII()) }},
	{"table8", func(s *core.Study) (string, error) { return s.TableVIII().Render(), nil }},
	{"figure1", (*core.Study).Figure1Demo},
	{"figure2", (*core.Study).Figure2Demo},
	{"figure3", func(s *core.Study) (string, error) { return rendered(s.Figure3()) }},
	{"figure4", func(s *core.Study) (string, error) { return rendered(s.Figure4()) }},
	{"figure5", func(s *core.Study) (string, error) { _, out, err := s.Figure5Demo(); return out, err }},
	{"figure6a", func(s *core.Study) (string, error) { return rendered(s.Figure6(core.Figure6a)) }},
	{"figure6b", func(s *core.Study) (string, error) { return rendered(s.Figure6(core.Figure6b)) }},
	{"figure6c", func(s *core.Study) (string, error) { return rendered(s.Figure6(core.Figure6c)) }},
	{"figure7", func(s *core.Study) (string, error) { return rendered(s.Figure7()) }},
	{"figure8", func(s *core.Study) (string, error) { return rendered(s.Figure8()) }},
}

var healStudy = experiment{"healstudy", func(s *core.Study) (string, error) { return rendered(s.HealStudy()) }}

func experimentByName(name string) (experiment, bool) {
	if name == healStudy.name {
		return healStudy, true
	}
	for _, e := range allExperiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// joinOutputs renders experiment outputs the way `experiment all` prints
// them.
func joinOutputs(texts []string) string {
	var b strings.Builder
	for _, t := range texts {
		b.WriteString(t)
		b.WriteString("\n")
	}
	return b.String()
}

// sweepShape is the layout every `experiment all` output shares, whatever
// the seed: the line count and the title line of each table and figure at
// fixed positions. Seed 1 is checked byte for byte against the golden;
// other seeds against this shape.
type sweepShape struct {
	lines  int
	titles map[int]string
}

func shapeOf(golden []byte) sweepShape {
	lines := strings.Split(string(golden), "\n")
	sh := sweepShape{lines: len(lines), titles: map[int]string{}}
	for i, l := range lines {
		if strings.HasPrefix(l, "Table ") || strings.HasPrefix(l, "Figure ") {
			sh.titles[i] = l
		}
	}
	return sh
}

func (sh sweepShape) matches(out string) bool {
	lines := strings.Split(out, "\n")
	if len(lines) != sh.lines {
		return false
	}
	for i, t := range sh.titles {
		if lines[i] != t {
			return false
		}
	}
	return true
}

// checkSweepOutput checks one `experiment all` output of study seed s.
func checkSweepOutput(golden []byte, s int64, out string) bool {
	if s == 1 {
		return bytes.Equal(golden, []byte(out))
	}
	return shapeOf(golden).matches(out)
}
