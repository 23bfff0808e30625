package unusedexport_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/unusedexport"
)

// TestUnusedExport covers unreferenced exported funcs, types and methods
// (a _test.go reference does not count), interface methods no selector
// calls although their implementations satisfy the interface, and the
// negatives: same-package references, methods satisfying a named
// interface, a standard-library interface reached through a parameter type,
// or error and fmt.Stringer, and interface methods called through a type
// parameter, an embedding interface or a method value.
func TestUnusedExport(t *testing.T) {
	analysistest.Run(t, "../testdata", unusedexport.Analyzer, "unusedexport", "unusedexport_ok")
}
