// Package lint runs the repository's determinism-and-safety analyzers over
// loaded packages and filters findings through //lint:ignore suppression
// directives. Audit is the one lint gate: it loads the whole module once,
// tests included, and runs the full suite over that load. The root audit
// test and cmd/repolint's -fix front end both call it.
//
// The runner resolves Requires dependencies between analyzers (DESIGN.md
// §8): required analyzers run first on each package and their results are
// wired through Pass.ResultOf, so interprocedural passes like
// internal/lint/dataflow are computed once and shared. Packages are
// analyzed concurrently through internal/parallel — findings come back in
// deterministic package order regardless of worker count.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/checkederr"
	"repro/internal/lint/detmerge"
	"repro/internal/lint/hotescape"
	"repro/internal/lint/load"
	"repro/internal/lint/maporder"
	"repro/internal/lint/nogoroutine"
	"repro/internal/lint/seededrand"
	"repro/internal/lint/seedflow"
	"repro/internal/lint/unusedexport"
	"repro/internal/lint/wallclock"
	"repro/internal/parallel"
)

// Analyzers is the full suite: every invariant DESIGN.md §8 documents, in
// stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		checkederr.Analyzer,
		detmerge.Analyzer,
		hotescape.Analyzer,
		maporder.Analyzer,
		nogoroutine.Analyzer,
		seededrand.Analyzer,
		seedflow.Analyzer,
		unusedexport.Analyzer,
		wallclock.Analyzer,
	}
}

// Audit loads every package of the module rooted at dir (./..., tests
// included) and runs the full suite over that one load. unusedexport is
// only sound over a whole-module load, which is why Audit takes no package
// patterns.
func Audit(dir string) ([]Finding, error) {
	pkgs, err := load.Packages(dir)
	if err != nil {
		return nil, err
	}
	return Run(pkgs, Analyzers())
}

// Finding is one unsuppressed diagnostic, located for printing and fixing.
type Finding struct {
	// Analyzer is the name of the analyzer that reported the finding.
	Analyzer string
	// Position is the resolved source position of Diagnostic.Pos.
	Position token.Position
	// Diagnostic is the raw diagnostic, including suggested fixes.
	Diagnostic analysis.Diagnostic
	// Fset resolves the diagnostic's positions (needed to apply fixes).
	Fset *token.FileSet
}

// String formats the finding the way the driver prints it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Diagnostic.Message, f.Analyzer)
}

// Expand returns analyzers plus their transitive Requires closure in a
// stable topological order (dependencies before dependents). It errors on
// dependency cycles.
func Expand(analyzers []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	var order []*analysis.Analyzer
	state := map[*analysis.Analyzer]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(a *analysis.Analyzer) error
	visit = func(a *analysis.Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analyzer dependency cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Run applies every analyzer to every package and returns the findings that
// no //lint:ignore directive suppresses, sorted by position then analyzer.
// Every package participates in the whole-program index handed to
// interprocedural passes.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	order, err := Expand(analyzers)
	if err != nil {
		return nil, err
	}
	wanted := map[*analysis.Analyzer]bool{}
	for _, a := range analyzers {
		wanted[a] = true
	}

	infos := make([]*analysis.PackageInfo, len(pkgs))
	for i, pkg := range pkgs {
		infos[i] = &analysis.PackageInfo{
			ImportPath: pkg.ImportPath,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
		}
	}
	program := analysis.NewProgram(infos)

	perPkg, err := parallel.Map(parallel.DefaultWorkers(), len(pkgs),
		func(i int) ([]Finding, error) {
			return runPackage(program, pkgs[i], order, wanted)
		})
	if err != nil {
		return nil, err
	}

	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// runPackage runs the expanded analyzer order over one package, wiring
// Requires results and filtering reports through suppression directives.
// Only analyzers in wanted contribute findings; the rest run for their
// results.
func runPackage(program *analysis.Program, pkg *load.Package, order []*analysis.Analyzer, wanted map[*analysis.Analyzer]bool) ([]Finding, error) {
	sup := directives(pkg.Fset, pkg.Files)
	results := map[*analysis.Analyzer]any{}
	var findings []Finding
	for _, a := range order {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			ResultOf:  results,
			Program:   program,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if !wanted[a] {
				return
			}
			pos := pkg.Fset.Position(d.Pos)
			if sup.suppresses(a.Name, pos) {
				return
			}
			findings = append(findings, Finding{
				Analyzer:   a.Name,
				Position:   pos,
				Diagnostic: d,
				Fset:       pkg.Fset,
			})
		}
		res, err := a.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
		results[a] = res
	}
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// supRange is one suppressed line span for one analyzer.
type supRange struct {
	from, to int
	analyzer string
}

// suppressions maps file → suppressed ranges.
type suppressions map[string][]supRange

// directives collects //lint:ignore directives from every comment in files.
// The form is:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory — a suppression without a justification is itself
// a smell. A directive written as a trailing comment suppresses its own
// line. A directive on its own line suppresses the next declaration,
// specification, or statement in the file — the whole node, so a directive
// above a grouped var/const block covers every line of the block, a
// directive above one spec inside a block covers just that spec, and a
// blank line between the directive and the code it governs does not break
// the association.
func directives(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		codeLines, spans := fileLayout(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					// No analyzer name or no reason: not a valid directive.
					continue
				}
				pos := fset.Position(c.Pos())
				r := supRange{analyzer: fields[0]}
				if codeLines[pos.Line] {
					// Trailing comment: suppresses its own line.
					r.from, r.to = pos.Line, pos.Line
				} else {
					r.from, r.to = nextSpan(spans, pos.Line)
				}
				sup[pos.Filename] = append(sup[pos.Filename], r)
			}
		}
	}
	return sup
}

// lineSpan is the line extent of one decl, spec, or statement.
type lineSpan struct {
	start, end int
}

// fileLayout records which lines carry code (for trailing-comment
// detection) and the spans of every declaration, specification, and
// statement (for standalone-directive attachment), sorted by start line.
func fileLayout(fset *token.FileSet, f *ast.File) (map[int]bool, []lineSpan) {
	codeLines := map[int]bool{}
	var spans []lineSpan
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		switch n.(type) {
		case ast.Decl, ast.Spec, ast.Stmt:
			spans = append(spans, lineSpan{
				start: fset.Position(n.Pos()).Line,
				end:   fset.Position(n.End()).Line,
			})
		}
		return true
	})
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end < spans[j].end
	})
	return codeLines, spans
}

// nextSpan returns the line range governed by a standalone directive at
// line: the full extent of the first node starting after it. With no such
// node the directive governs only the following line.
func nextSpan(spans []lineSpan, line int) (from, to int) {
	for _, s := range spans {
		if s.start > line {
			return s.start, s.end
		}
	}
	return line + 1, line + 1
}

// suppresses reports whether a directive's governed range covers the
// diagnostic's line for this analyzer.
func (s suppressions) suppresses(analyzer string, pos token.Position) bool {
	for _, r := range s[pos.Filename] {
		if r.analyzer == analyzer && pos.Line >= r.from && pos.Line <= r.to {
			return true
		}
	}
	return false
}

// ApplyFixes applies every suggested fix attached to findings, rewriting
// the affected files in place. Edits are applied from the end of each file
// backwards so earlier offsets stay valid. It returns the number of edits
// applied.
func ApplyFixes(findings []Finding) (int, error) {
	type edit struct {
		start, end int
		text       []byte
	}
	perFile := map[string][]edit{}
	for _, f := range findings {
		for _, fix := range f.Diagnostic.SuggestedFixes {
			for _, te := range fix.TextEdits {
				start := f.Fset.Position(te.Pos)
				end := start
				if te.End.IsValid() {
					end = f.Fset.Position(te.End)
				}
				perFile[start.Filename] = append(perFile[start.Filename], edit{
					start: start.Offset,
					end:   end.Offset,
					text:  te.NewText,
				})
			}
		}
	}
	applied := 0
	for file, edits := range perFile {
		src, err := os.ReadFile(file)
		if err != nil {
			return applied, err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		prev := -1
		for _, e := range edits {
			if prev >= 0 && e.end > prev {
				continue // overlapping edit: keep the first applied
			}
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
			prev = e.start
			applied++
		}
		if err := os.WriteFile(file, src, 0o644); err != nil {
			return applied, err
		}
	}
	return applied, nil
}
