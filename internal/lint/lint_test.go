package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/load"
	"repro/internal/lint/maporder"
	"repro/internal/lint/seededrand"
)

// fixtureSrc has one maporder violation (unsorted), one suppressed by a
// justified //lint:ignore directive, and one already clean — so a single
// run exercises reporting, suppression, and the sort-insertion fix.
const fixtureSrc = `package demo

import "sort"

func unsorted(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func suppressed(m map[string]int) []string {
	var ks []string
	//lint:ignore maporder demonstration: consumers treat ks as a set
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func clean(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
`

// checkFile parses and type-checks one on-disk file as a throwaway package
// importing the named standard-library dependencies.
func checkFile(t *testing.T, path string, deps ...string) *load.Package {
	t.Helper()
	if len(deps) == 0 {
		deps = []string{"sort"}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exports, err := load.StdExports(".", deps...)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := load.Check("demo", fset, []*ast.File{f}, exports)
	if err != nil {
		t.Fatal(err)
	}
	return &load.Package{
		ImportPath: "demo",
		Dir:        filepath.Dir(path),
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      pkg,
		Info:       info,
	}
}

// TestSuppressionAndFix drives the shared runner the way repolint -fix does:
// the unsuppressed finding is reported with a sort-insertion fix, the
// directive swallows the second violation, and applying the fix leaves the
// file lint-clean.
func TestSuppressionAndFix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.go")
	if err := os.WriteFile(path, []byte(fixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	findings, err := lint.Run([]*load.Package{checkFile(t, path)}, []*analysis.Analyzer{maporder.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly the unsuppressed finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "maporder" || !strings.Contains(f.Diagnostic.Message, "appends to ks") {
		t.Fatalf("unexpected finding: %v", f)
	}
	if len(f.Diagnostic.SuggestedFixes) != 1 {
		t.Fatalf("want one suggested fix, got %d", len(f.Diagnostic.SuggestedFixes))
	}

	applied, err := lint.ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("want 1 applied edit, got %d", applied)
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(fixed), "sort.Strings(ks)"); got != 2 {
		t.Fatalf("want the inserted sort plus the pre-existing one (2), got %d in:\n%s", got, fixed)
	}

	// The fixed file must be valid Go and lint-clean.
	findings, err = lint.Run([]*load.Package{checkFile(t, path)}, []*analysis.Analyzer{maporder.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("fixed file should be clean, got: %v", findings)
	}
}

// suppressionSrc exercises every attachment rule for standalone and trailing
// directives: a directive above a grouped var block governs the whole block,
// a directive above one spec inside a group governs just that spec, a blank
// line between directive and code does not break the association, and a
// trailing directive governs its own line. Only d and g may be reported.
const suppressionSrc = `package demo

import "math/rand"

//lint:ignore seededrand fixture: the whole group is grandfathered
var (
	a = rand.Intn(1)

	b = rand.Intn(2)
)

var (
	//lint:ignore seededrand fixture: only c is grandfathered
	c = rand.Intn(3)
	d = rand.Intn(4)
)

//lint:ignore seededrand fixture: a blank line does not break the association

var e = rand.Intn(5)

var f = rand.Intn(6) //lint:ignore seededrand fixture: trailing directive

var g = rand.Intn(7)
`

// TestSuppressionGroupsAndBlankLines is the regression test for directive
// attachment: grouped var/const blocks, spec-level directives inside groups,
// blank-line separation, and trailing directives.
func TestSuppressionGroupsAndBlankLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.go")
	if err := os.WriteFile(path, []byte(suppressionSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run([]*load.Package{checkFile(t, path, "math/rand")},
		[]*analysis.Analyzer{seededrand.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range findings {
		if f.Analyzer != "seededrand" {
			t.Fatalf("unexpected analyzer in finding: %v", f)
		}
		lines = append(lines, f.Position.Line)
	}
	// d is on line 15 and g on line 24 of suppressionSrc.
	want := []int{15, 24}
	if len(lines) != len(want) || lines[0] != want[0] || lines[1] != want[1] {
		t.Fatalf("want findings exactly on lines %v (d and g), got %v: %v", want, lines, findings)
	}
}

// auditModule is a throwaway module with one seeded violation per analyzer
// of the suite. Its path mirrors the repository's so the path-scoped
// analyzers apply: internal/sim is a simulation package (wallclock) outside
// internal/parallel (nogoroutine), and internal/parallel.Map is the harness
// entry point whose results detmerge tracks. Each violation's line ends in
// a "seeded: <analyzer>" comment naming the analyzer that must report it.
var auditModule = map[string]string{
	"go.mod": "module repro\n\ngo 1.22\n",
	"internal/parallel/parallel.go": `package parallel

// Map stands in for the worker pool: it returns task-ordered results.
func Map(n int, fn func(task int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}
`,
	"internal/sim/sim.go": `package sim

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/parallel"
)

func Unused() {} // seeded: unusedexport

func draw() int {
	return rand.Intn(6) // seeded: seededrand
}

func stream() *rand.Rand {
	return rand.New(rand.NewSource(42)) // seeded: seedflow
}

func emit(m map[string]int) {
	for k := range m { // seeded: maporder
		fmt.Println(k)
	}
}

func spawn() {
	go func() {}() // seeded: nogoroutine
}

func stamp() time.Time {
	return time.Now() // seeded: wallclock
}

func remove() {
	os.Remove("scratch") // seeded: checkederr
}

//hot:path
func hot(n int) []int {
	return make([]int, n) // seeded: hotescape
}

func fold(n int) float64 {
	byID := map[int]float64{}
	for i, v := range parallel.Map(n, func(i int) float64 { return float64(i) }) {
		byID[i] = v
	}
	sum := 0.0
	for _, v := range byID { // seeded: detmerge
		sum += v
	}
	return sum
}
`,
}

// TestAuditCatchesEveryAnalyzer runs the gate the root audit test runs,
// lint.Audit, over auditModule and requires every analyzer of the suite to
// report its seeded violation: dropping any analyzer from the suite fails
// here, not silently in tier-1.
func TestAuditCatchesEveryAnalyzer(t *testing.T) {
	dir := t.TempDir()
	analysistest.WriteTree(t, dir, auditModule)
	findings, err := lint.Audit(dir)
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{} // "analyzer:line" in sim.go
	for _, f := range findings {
		if filepath.Base(f.Position.Filename) == "sim.go" {
			reported[fmt.Sprintf("%s:%d", f.Analyzer, f.Position.Line)] = true
		}
	}

	seeded := map[string]int{} // analyzer → line of its seeded violation
	for i, line := range strings.Split(auditModule["internal/sim/sim.go"], "\n") {
		if _, name, ok := strings.Cut(line, "// seeded: "); ok {
			seeded[name] = i + 1
		}
	}
	suite := []string{"checkederr", "detmerge", "hotescape", "maporder", "nogoroutine",
		"seededrand", "seedflow", "unusedexport", "wallclock"}
	for _, a := range lint.Analyzers() {
		if _, ok := seeded[a.Name]; !ok {
			t.Errorf("analyzer %s has no seeded violation in auditModule", a.Name)
		}
	}
	for _, name := range suite {
		line, ok := seeded[name]
		if !ok {
			t.Errorf("auditModule seeds no %s violation", name)
			continue
		}
		if !reported[fmt.Sprintf("%s:%d", name, line)] {
			t.Errorf("lint.Audit missed the seeded %s violation at sim.go:%d; findings: %v", name, line, findings)
		}
	}
}
