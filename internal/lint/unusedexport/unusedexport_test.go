package unusedexport_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/unusedexport"
)

// TestUnusedExport covers unreferenced exported funcs, types and methods
// (a _test.go reference does not count) and the negatives: same-package
// references and methods satisfying a named interface, a standard-library
// interface reached through a parameter type, or error and fmt.Stringer.
func TestUnusedExport(t *testing.T) {
	analysistest.Run(t, "../testdata", unusedexport.Analyzer, "unusedexport", "unusedexport_ok")
}
