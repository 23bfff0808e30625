// Package checkederr flags statements that silently drop an error return.
// In an experiment pipeline a swallowed I/O or encoding error does not
// crash — it yields a truncated table or CSV that looks like a result. The
// invariant: in non-test code, an error may not vanish. Three forms are
// flagged: a call whose type includes error standing alone as a statement;
// an assignment whose left-hand side is entirely blank (`_, _ = f()`), which
// hides the error just as thoroughly while looking deliberate; and a
// deferred Close, whose error (the final flush for writable files) is
// unrecoverable by the time the defer runs. Handle the error, or discard it
// as a single `_ =` with a reason, or suppress with a justified directive.
//
// Documented exemptions (DESIGN.md §8): the fmt print family, the
// never-failing writers strings.Builder and bytes.Buffer, and hash.Hash
// implementations (their Write is defined to never return an error).
package checkederr

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/internal/astutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "checkederr",
	Doc: "flags discarded error results in non-test code: bare call statements, " +
		"all-blank assignments, and deferred Close",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && returnsError(pass, call) && !exempt(pass, call) {
					pass.Reportf(call.Pos(),
						"unchecked error: result of %s is discarded; handle it or assign to _ with a reason",
						types.ExprString(call.Fun))
				}
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			case *ast.DeferStmt:
				checkDeferredClose(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkBlankAssign flags assignments that blank every result of an
// error-returning call (`_, _ = f()`). A single `_ = f()` stays sanctioned:
// one lone blank reads as a deliberate, reviewable discard, while an
// all-blank tuple buries which result was the error.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) < 2 {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return
		}
	}
	for _, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !returnsError(pass, call) || exempt(pass, call) {
			continue
		}
		pass.Reportf(call.Pos(),
			"unchecked error: result of %s is discarded by an all-blank assignment; name the error or keep a single _ with a reason",
			types.ExprString(call.Fun))
	}
}

// checkDeferredClose flags `defer x.Close()` when Close returns an error:
// for writable files the deferred Close carries the final flush, and its
// error is lost with no one left to see it. Close explicitly on the success
// path (keeping the defer as a no-op backstop needs a named-return wrapper),
// or justify the discard with a directive for read-only handles.
func checkDeferredClose(pass *analysis.Pass, d *ast.DeferStmt) {
	call := d.Call
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return
	}
	if !returnsError(pass, call) || exempt(pass, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"unchecked error: deferred %s discards its error; close explicitly and handle it, or justify with a directive",
		types.ExprString(call.Fun))
}

// returnsError reports whether the call's result type is or contains error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isError(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isError(t)
	}
}

// errorType is the built-in error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isError(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}

// exempt reports whether the callee is on the documented allowlist: the fmt
// print family (whose error is the writer's, unusable for stdout and
// in-memory sinks), methods of the never-failing in-memory writers, and
// hash.Hash implementations (Write never returns an error by contract).
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := astutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			path, name := named.Obj().Pkg().Path(), named.Obj().Name()
			if (path == "strings" && name == "Builder") || (path == "bytes" && name == "Buffer") {
				return true
			}
		}
		// Judge the hash.Hash shape on the operand's type, not the method's
		// declared receiver: hash.Hash embeds io.Writer, so Write's receiver
		// is io.Writer and says nothing about the rest of the method set.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := pass.TypesInfo.TypeOf(sel.X); t != nil && isHashHash(t) {
				return true
			}
		}
	}
	return false
}

// isHashHash reports whether the receiver carries the hash.Hash method set
// (Write, Sum, Reset, Size, BlockSize) — structural, so it matches both the
// interface itself and concrete digest types without importing their
// packages.
func isHashHash(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for _, name := range [...]string{"Write", "Sum", "Reset", "Size", "BlockSize"} {
		if sel := ms.Lookup(nil, name); sel == nil {
			return false
		}
	}
	return true
}
