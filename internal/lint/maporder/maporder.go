// Package maporder flags range-over-map loops whose iteration order leaks
// into output — the classic killer of byte-identical experiment results,
// because Go randomises map iteration order on every run. Three body shapes
// are order-sensitive:
//
//   - the body appends map keys/values to a slice that outlives the loop
//     and no statement after the loop sorts that slice;
//   - the body emits output directly (fmt.Fprint*/Print*, or a Write*
//     method — an io.Writer, csv.Writer, hash, or string builder);
//   - the body folds map values into a floating-point accumulator with an
//     op-assign: float addition is not associative, so even a "sum" varies
//     run to run.
//
// Commutative integer accumulation (count++, n += v) is order-insensitive
// and allowed. Where the unsorted slice has element type string or int and
// the file already imports "sort", the analyzer attaches a -fix suggestion
// inserting the missing sort call after the loop. Test files are skipped.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/internal/astutil"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map loops whose body appends, emits, or " +
		"accumulates order-sensitively without a subsequent sort",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		sortImported := importsSort(f)
		// Walk every block so each range statement is seen together with
		// the statements that follow it in its enclosing block.
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				rs := rangeOverMap(pass, stmt)
				if rs == nil {
					continue
				}
				checkRange(pass, rs, list[i+1:], sortImported)
			}
			return true
		})
	}
	return nil, nil
}

// rangeOverMap unwraps stmt (through labels) to a range statement whose
// operand is a map.
func rangeOverMap(pass *analysis.Pass, stmt ast.Stmt) *ast.RangeStmt {
	if ls, ok := stmt.(*ast.LabeledStmt); ok {
		stmt = ls.Stmt
	}
	rs, ok := stmt.(*ast.RangeStmt)
	if !ok {
		return nil
	}
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return rs
	}
	return nil
}

// checkRange inspects one map-range body and the statements that follow it.
func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, after []ast.Stmt, sortImported bool) {
	mapExpr := types.ExprString(rs.X)
	// accumulators maps the printed form of each slice expression the body
	// appends to → a representative append site.
	accumulators := map[string]ast.Expr{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := emissionCall(pass, n); name != "" {
				pass.Reportf(rs.Pos(),
					"range over map %s emits output via %s in map iteration order; collect the keys, sort them, and range over the sorted keys",
					mapExpr, name)
				return true
			}
		case *ast.AssignStmt:
			checkAssign(pass, rs, n, mapExpr, accumulators)
		}
		return true
	})
	printed := make([]string, 0, len(accumulators))
	for p := range accumulators {
		printed = append(printed, p)
	}
	sort.Strings(printed)
	for _, p := range printed {
		lhs := accumulators[p]
		if sortedAfter(pass, lhs, after) {
			continue
		}
		d := analysis.Diagnostic{
			Pos: rs.Pos(),
			Message: fmt.Sprintf(
				"range over map %s appends to %s in map iteration order with no subsequent sort; sort it before use",
				mapExpr, types.ExprString(lhs)),
		}
		if fix := sortFix(pass, rs, lhs, sortImported); fix != nil {
			d.SuggestedFixes = []analysis.SuggestedFix{*fix}
		}
		pass.Report(d)
	}
}

// checkAssign records appends to outer slices and reports float op-assign
// accumulation.
func checkAssign(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, mapExpr string, accumulators map[string]ast.Expr) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			lhs := as.Lhs[i]
			if declaredInside(pass, lhs, rs) {
				continue
			}
			accumulators[types.ExprString(lhs)] = lhs
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if declaredInside(pass, lhs, rs) {
			return
		}
		t := pass.TypesInfo.TypeOf(lhs)
		if t == nil {
			return
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
			pass.Reportf(rs.Pos(),
				"range over map %s accumulates floating-point %s in map iteration order; float addition is not associative, so the result varies run to run — sort the keys first",
				mapExpr, types.ExprString(lhs))
		}
	}
}

// declaredInside reports whether expr is (rooted at) an identifier declared
// inside the range statement — loop-local state is not an accumulator.
func declaredInside(pass *analysis.Pass, expr ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false // selector/index: assume it outlives the loop
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return astutil.DeclaredWithin(obj, rs)
}

// emissionCall reports the printed callee if the call writes output in an
// order-sensitive way: the fmt print family, or any Write/WriteString/
// WriteByte/WriteRune/Printf/Print method (io.Writer, csv.Writer, hashes,
// tabwriter — all observe emission order).
func emissionCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := astutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && sig != nil && sig.Recv() == nil {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return types.ExprString(call.Fun)
		}
	}
	if sig != nil && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print":
			return types.ExprString(call.Fun)
		}
	}
	return ""
}

// sortedAfter reports whether any statement after the loop sorts the
// accumulated expression: a call into the sort or slices package, or a call
// to a function whose name announces sorting (sortNodeIDs, SortRows, …),
// with the accumulator among its arguments.
func sortedAfter(pass *analysis.Pass, lhs ast.Expr, after []ast.Stmt) bool {
	want := types.ExprString(lhs)
	for _, stmt := range after {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := astutil.Callee(pass.TypesInfo, call)
			if fn == nil || !sortsArgs(fn) {
				return true
			}
			for _, arg := range call.Args {
				if mentions(arg, want) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// sortsArgs reports whether fn is a sorting function: anything from the
// sort/slices packages, or a function named sort*/Sort*.
func sortsArgs(fn *types.Func) bool {
	if fn.Pkg() != nil {
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			return true
		}
	}
	name := fn.Name()
	return strings.HasPrefix(name, "sort") || strings.HasPrefix(name, "Sort")
}

// mentions reports whether expr or any subexpression prints as want.
func mentions(expr ast.Expr, want string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}

// sortFix builds the insert-a-sort suggestion when it is safe: the
// accumulator is a named []string or []int and the file imports "sort".
func sortFix(pass *analysis.Pass, rs *ast.RangeStmt, lhs ast.Expr, sortImported bool) *analysis.SuggestedFix {
	if !sortImported {
		return nil
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	t := pass.TypesInfo.TypeOf(id)
	if t == nil {
		return nil
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	b, ok := slice.Elem().Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	var call string
	switch b.Kind() {
	case types.String:
		call = "sort.Strings"
	case types.Int:
		call = "sort.Ints"
	default:
		return nil
	}
	if named, ok := slice.Elem().(*types.Named); ok && named.Obj().Pkg() != nil {
		return nil // named element type: sort.Strings/Ints would not compile
	}
	indent := strings.Repeat("\t", pass.Fset.Position(rs.Pos()).Column-1)
	text := fmt.Sprintf("\n%s%s(%s)", indent, call, id.Name)
	return &analysis.SuggestedFix{
		Message:   fmt.Sprintf("insert %s(%s) after the loop", call, id.Name),
		TextEdits: []analysis.TextEdit{{Pos: rs.End(), End: rs.End(), NewText: []byte(text)}},
	}
}

// importsSort reports whether f imports the sort package unaliased.
func importsSort(f *ast.File) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"sort"` && imp.Name == nil {
			return true
		}
	}
	return false
}
