// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// lint suite works in a hermetic build (no module downloads). It keeps the
// upstream API shape — Analyzer, Pass, Diagnostic, SuggestedFix — so the
// analyzers in sibling packages read like stock go/analysis checkers and
// could be ported to the real framework by changing one import.
//
// Beyond the upstream shape, the package carries the interprocedural layer
// of DESIGN.md §8: an Analyzer may declare Requires dependencies on other
// analyzers (the fact-style mechanism upstream spells Requires +
// ResultType), and the driver, which loads the whole module at once,
// exposes it through Pass.Program so passes like internal/lint/dataflow can
// build call graphs and function summaries that cross package boundaries.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Analyzer describes one static check: a name (used in diagnostics and in
// //lint:ignore directives), one-paragraph documentation, and a Run function
// applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the help text: first line is a summary, the rest explains the
	// invariant the analyzer encodes.
	Doc string
	// Requires lists analyzers whose results this analyzer consumes. The
	// driver runs them on the same package first and makes their return
	// values available in Pass.ResultOf. The graph must be acyclic.
	Requires []*Analyzer
	// Run applies the analyzer to one package, reports diagnostics via
	// pass.Report / pass.Reportf, and may return a result value for
	// analyzers that list it in Requires.
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the parsed source files of the package, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds resolved identifiers, expression types, and
	// selections for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)
	// ResultOf holds the return values of the analyzers named in
	// Analyzer.Requires, keyed by analyzer. Set by the driver.
	ResultOf map[*Analyzer]any
	// Program is the whole load set, for interprocedural passes. The
	// single-package analysistest harness leaves it nil; passes that need
	// it must degrade gracefully (or error) when it is absent.
	Program *Program
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file — several
// analyzers in this suite scope their invariant to non-test code.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// PackageInfo is one loaded package as seen by interprocedural passes: the
// same syntax and type information a Pass carries, without the per-analyzer
// fields.
type PackageInfo struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Program is the whole load set handed to interprocedural passes. A driver
// builds one Program per run and shares it across every Pass; passes use
// Memo to build whole-program indexes exactly once even when the driver
// analyzes packages concurrently.
type Program struct {
	// Packages are the loaded packages, sorted by import path. The slice
	// and everything reachable from it must be treated as read-only.
	Packages []*PackageInfo

	mu   sync.Mutex
	memo map[string]any
}

// NewProgram wraps a load set.
func NewProgram(pkgs []*PackageInfo) *Program {
	return &Program{Packages: pkgs, memo: map[string]any{}}
}

// Memo returns the value cached under key, computing it with build on first
// use. It is safe for concurrent use by parallel driver workers; build runs
// at most once per key and must not call Memo reentrantly.
func (p *Program) Memo(key string, build func() any) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// Diagnostic is one finding: a source range, a message, and zero or more
// machine-applicable fixes.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional: defaults to Pos
	Message string
	// SuggestedFixes are edits the driver may apply under -fix. A fix must
	// be safe: applying it preserves behaviour except for the invariant
	// being restored.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one alternative fix, expressed as raw text edits.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source in [Pos, End) with NewText. Insertions use
// Pos == End.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}
