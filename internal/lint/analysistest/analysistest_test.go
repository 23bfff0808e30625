package analysistest_test

import (
	"fmt"
	"go/ast"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

// fakeT records what the harness reports so the harness itself can be put
// under test: a run against a correct fixture must record nothing, and a
// run against a broken one must record the right complaints instead of
// passing silently.
type fakeT struct {
	errors []string
	fatals []string
}

func (f *fakeT) Helper() {}
func (f *fakeT) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}
func (f *fakeT) Fatalf(format string, args ...any) {
	f.fatals = append(f.fatals, fmt.Sprintf(format, args...))
}

func (f *fakeT) clean() bool { return len(f.errors) == 0 && len(f.fatals) == 0 }

// metaAnalyzer flags calls to a function literally named "bad" with a
// message full of regexp metacharacters, and suggests renaming the call to
// "good" — enough surface to exercise want parsing and the -fix golden path.
var metaAnalyzer = &analysis.Analyzer{
	Name: "metatest",
	Doc:  "meta-test analyzer: flags calls to bad() and fixes them to good()",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "bad" {
					return true
				}
				pass.Report(analysis.Diagnostic{
					Pos:     call.Pos(),
					Message: "call to bad() [deprecated]",
					SuggestedFixes: []analysis.SuggestedFix{{
						Message:   "replace with good()",
						TextEdits: []analysis.TextEdit{{Pos: id.Pos(), End: id.End(), NewText: []byte("good")}},
					}},
				})
				return true
			})
		}
		return nil, nil
	},
}

// writeFixture materialises one fixture package and returns the testdata
// root to hand to Run.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	analysistest.WriteTree(t, dir, files)
	return dir
}

// TestWantMetacharacters proves want patterns are full regular expressions:
// backquoted and double-quoted patterns with escaped metacharacters match,
// and an unescaped character class that cannot match is reported as an
// unfulfilled expectation rather than silently dropped.
func TestWantMetacharacters(t *testing.T) {
	testdata := writeFixture(t, map[string]string{
		"src/meta/meta.go": `package meta

func bad()  {}
func good() {}

func use() {
	bad() // want ` + "`" + `call to bad\(\) \[deprecated\]` + "`" + `
	bad() // want "call to bad\\(\\) \\[deprecated\\]"
}
`,
	})
	ft := &fakeT{}
	analysistest.Run(ft, testdata, metaAnalyzer, "meta")
	if !ft.clean() {
		t.Fatalf("harness flagged a correct fixture: errors=%q fatals=%q", ft.errors, ft.fatals)
	}

	// The same fixture with a pattern whose metacharacters are NOT escaped:
	// `[deprecated]` is a character class and `()` an empty group, so the
	// anchored pattern cannot match the literal message — the harness must
	// report both the unexpected diagnostic and the unfulfilled expectation,
	// not quietly treat the pattern as literal text.
	testdata = writeFixture(t, map[string]string{
		"src/meta/meta.go": `package meta

func bad()  {}
func good() {}

func use() {
	bad() // want ` + "`" + `^call to bad$ [deprecated]` + "`" + `
}
`,
	})
	ft = &fakeT{}
	analysistest.Run(ft, testdata, metaAnalyzer, "meta")
	if len(ft.errors) != 2 {
		t.Fatalf("want 2 errors (diagnostic unmatched by the metacharacter pattern), got errors=%q fatals=%q", ft.errors, ft.fatals)
	}
}

// TestWantBadRegexp proves an invalid pattern is a fixture bug the harness
// refuses to run past, not an ignored expectation.
func TestWantBadRegexp(t *testing.T) {
	testdata := writeFixture(t, map[string]string{
		"src/meta/meta.go": `package meta

func bad() {}

func use() {
	bad() // want ` + "`" + `(` + "`" + `
}
`,
	})
	ft := &fakeT{}
	analysistest.Run(ft, testdata, metaAnalyzer, "meta")
	if len(ft.fatals) != 1 || !strings.Contains(ft.fatals[0], "bad want pattern") {
		t.Fatalf("want one 'bad want pattern' fatal, got errors=%q fatals=%q", ft.errors, ft.fatals)
	}
}

// TestWantMismatches proves both failure directions: a diagnostic with no
// expectation and an expectation with no diagnostic each produce an error.
func TestWantMismatches(t *testing.T) {
	testdata := writeFixture(t, map[string]string{
		"src/meta/meta.go": `package meta

func bad()  {}
func good() {}

func use() {
	bad()
	good() // want ` + "`" + `call to bad` + "`" + `
}
`,
	})
	ft := &fakeT{}
	analysistest.Run(ft, testdata, metaAnalyzer, "meta")
	if len(ft.errors) != 2 {
		t.Fatalf("want exactly 2 errors (unexpected diagnostic + unmatched want), got %q", ft.errors)
	}
	if !strings.Contains(ft.errors[0], "unexpected diagnostic") {
		t.Errorf("first error should be the unexpected diagnostic, got %q", ft.errors[0])
	}
	if !strings.Contains(ft.errors[1], "expected diagnostic matching") {
		t.Errorf("second error should be the unmatched want, got %q", ft.errors[1])
	}
}

// TestFixGoldenRoundTrip proves the -fix contract normalises both sides
// through gofmt: a golden with non-canonical spacing still matches the
// applied fix, so goldens do not need to be byte-perfect gofmt output.
func TestFixGoldenRoundTrip(t *testing.T) {
	testdata := writeFixture(t, map[string]string{
		"src/meta/meta.go": `package meta

func bad()  {}
func good() {}

func use() {
	bad() // want ` + "`" + `call to bad\(\) \[deprecated\]` + "`" + `
}
`,
		// Deliberately messy: extra blank line and unaligned spacing. gofmt
		// on both sides must absorb the difference.
		"src/meta/meta.go.golden": `package meta

func bad()        {}
func good() {}


func use() {
	good() // want ` + "`" + `call to bad\(\) \[deprecated\]` + "`" + `
}
`,
	})
	ft := &fakeT{}
	analysistest.RunWithSuggestedFixes(ft, testdata, metaAnalyzer, "meta")
	if !ft.clean() {
		t.Fatalf("golden round-trip failed: errors=%q fatals=%q", ft.errors, ft.fatals)
	}
}

// TestFixWithoutGolden proves a fixture that triggers fixes but ships no
// .golden fails loudly instead of skipping the comparison.
func TestFixWithoutGolden(t *testing.T) {
	testdata := writeFixture(t, map[string]string{
		"src/meta/meta.go": `package meta

func bad()  {}
func good() {}

func use() {
	bad() // want ` + "`" + `call to bad\(\) \[deprecated\]` + "`" + `
}
`,
	})
	ft := &fakeT{}
	analysistest.RunWithSuggestedFixes(ft, testdata, metaAnalyzer, "meta")
	if len(ft.errors) != 1 || !strings.Contains(ft.errors[0], "no meta.go.golden exists") {
		t.Fatalf("want one missing-golden error, got errors=%q fatals=%q", ft.errors, ft.fatals)
	}
}
