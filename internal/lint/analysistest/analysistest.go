// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want comments, mirroring the contract of
// golang.org/x/tools/go/analysis/analysistest on the standard library only.
//
// A fixture line expects diagnostics with a trailing comment:
//
//	rand.Intn(6) // want `global math/rand call`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match the message of exactly one diagnostic reported
// on that line; diagnostics with no matching expectation, and expectations
// with no matching diagnostic, fail the test. Fixture packages live under
// <testdata>/src/<importpath> and may import only the standard library.
//
// Analyzers that declare Requires get their dependencies run first on the
// same fixture package, in dependency order, with results wired through
// Pass.ResultOf exactly as the real driver does. Dependency diagnostics are
// discarded — only the analyzer under test is checked against the wants.
package analysistest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// T is the slice of *testing.T the harness needs. It is an interface so the
// harness itself can be meta-tested with a recording fake.
type T interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// expectation is one want pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	raw     string
	matched bool
}

// Run loads each fixture package under testdata/src, applies the analyzer,
// and reports every mismatch between diagnostics and // want expectations.
//
//lint:ignore unusedexport test harness: every analyzer's fixture test runs through it
func Run(t T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		runOne(t, filepath.Join(testdata, "src", pkgPath), pkgPath, a, false)
	}
}

// RunWithSuggestedFixes is Run plus the -fix contract: after the want check,
// every suggested fix is applied in memory, the result is formatted with
// gofmt, and compared against the fixture's <name>.golden sibling (which is
// also formatted first, so goldens don't have to be byte-perfect gofmt
// output). Fixture files without a .golden must come out unchanged.
//
//lint:ignore unusedexport test harness: the -fix golden tests run through it
func RunWithSuggestedFixes(t T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		runOne(t, filepath.Join(testdata, "src", pkgPath), pkgPath, a, true)
	}
}

func runOne(t T, dir, pkgPath string, a *analysis.Analyzer, checkFixes bool) {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("%s: no fixture files in %s (%v)", pkgPath, dir, err)
		return
	}
	sort.Strings(names)
	var files []*ast.File
	imports := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
			return
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}
	var importList []string
	for p := range imports {
		importList = append(importList, p)
	}
	sort.Strings(importList)
	exports, err := load.StdExports(".", importList...)
	if err != nil {
		t.Fatalf("%s: resolving fixture imports: %v", pkgPath, err)
		return
	}
	pkg, info, err := load.Check(pkgPath, fset, files, exports)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
		return
	}

	newPass := func(a *analysis.Analyzer, report func(analysis.Diagnostic)) *analysis.Pass {
		return &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    report,
		}
	}

	// Run the Requires closure in dependency order, discarding diagnostics.
	results := map[*analysis.Analyzer]any{}
	var runDeps func(a *analysis.Analyzer) error
	runDeps = func(a *analysis.Analyzer) error {
		for _, dep := range a.Requires {
			if _, done := results[dep]; done {
				continue
			}
			if err := runDeps(dep); err != nil {
				return err
			}
			pass := newPass(dep, func(analysis.Diagnostic) {})
			pass.ResultOf = results
			res, err := dep.Run(pass)
			if err != nil {
				return fmt.Errorf("required analyzer %s: %v", dep.Name, err)
			}
			results[dep] = res
		}
		return nil
	}
	if err := runDeps(a); err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
		return
	}

	expectations := collectWants(t, fset, files)
	var diags []analysis.Diagnostic
	pass := newPass(a, func(d analysis.Diagnostic) { diags = append(diags, d) })
	pass.ResultOf = results
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s: %v", pkgPath, a.Name, err)
		return
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(expectations, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, e := range expectations {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}

	if checkFixes {
		compareFixes(t, fset, names, diags)
	}
}

// compareFixes applies every suggested fix in memory and diffs the gofmt'd
// result against the fixture's .golden sibling.
func compareFixes(t T, fset *token.FileSet, names []string, diags []analysis.Diagnostic) {
	t.Helper()
	type edit struct {
		start, end int
		text       []byte
	}
	perFile := map[string][]edit{}
	for _, d := range diags {
		for _, fix := range d.SuggestedFixes {
			for _, te := range fix.TextEdits {
				start := fset.Position(te.Pos)
				end := start
				if te.End.IsValid() {
					end = fset.Position(te.End)
				}
				perFile[start.Filename] = append(perFile[start.Filename], edit{
					start: start.Offset,
					end:   end.Offset,
					text:  te.NewText,
				})
			}
		}
	}
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%v", err)
			return
		}
		edits := perFile[name]
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		prev := -1
		for _, e := range edits {
			if prev >= 0 && e.end > prev {
				continue // overlapping edit: keep the first applied
			}
			src = append(src[:e.start], append(append([]byte{}, e.text...), src[e.end:]...)...)
			prev = e.start
		}
		got, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: fixed source does not parse: %v\n%s", name, err, src)
			continue
		}
		goldenName := name + ".golden"
		golden, err := os.ReadFile(goldenName)
		if os.IsNotExist(err) {
			if len(edits) > 0 {
				t.Errorf("%s: fixes were suggested but no %s exists", name, filepath.Base(goldenName))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v", err)
			return
		}
		want, err := format.Source(golden)
		if err != nil {
			t.Fatalf("%s: golden does not parse: %v", goldenName, err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fixed output differs from %s:\n-- got --\n%s\n-- want --\n%s",
				name, filepath.Base(goldenName), got, want)
		}
	}
}

// claim marks the first unmatched expectation at (file, line) whose pattern
// matches message.
func claim(expectations []*expectation, file string, line int, message string) bool {
	for _, e := range expectations {
		if e.matched || e.file != file || e.line != line {
			continue
		}
		if e.pattern.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

// wantRE strips the leading "// want " marker from a comment.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants parses every // want comment into expectations anchored at
// the comment's line.
func collectWants(t T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitPatterns(t, pos, m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
						return nil
					}
					out = append(out, &expectation{
						file:    pos.Filename,
						line:    pos.Line,
						pattern: re,
						raw:     raw,
					})
				}
			}
		}
	}
	return out
}

// splitPatterns tokenises the tail of a want comment into its quoted
// patterns (double- or back-quoted, space-separated).
func splitPatterns(t T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var raw string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern: %s", pos.Filename, pos.Line, s)
				return out
			}
			raw = s[1 : 1+end]
			s = s[end+2:]
		case '"':
			var err error
			end := quotedEnd(s)
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern: %s", pos.Filename, pos.Line, s)
				return out
			}
			raw, err = strconv.Unquote(s[:end])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, s[:end], err)
				return out
			}
			s = s[end:]
		default:
			t.Fatalf("%s:%d: want patterns must be quoted, got: %s", pos.Filename, pos.Line, s)
			return out
		}
		out = append(out, raw)
		s = strings.TrimSpace(s)
	}
	return out
}

// quotedEnd returns the index just past the closing double quote of the
// quoted string starting at s[0], honouring backslash escapes.
func quotedEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// WriteTree is a helper for tests that need to materialise a fixture tree
// at runtime; it writes files (path → contents, relative to dir).
//
//lint:ignore unusedexport test harness: materialises fixture trees for the harness's own meta-tests
func WriteTree(t T, dir string, files map[string]string) {
	t.Helper()
	for name, contents := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("%v", err)
			return
		}
		if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatalf("%v", err)
			return
		}
	}
}
