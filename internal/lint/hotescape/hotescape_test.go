package hotescape_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/hotescape"
)

// TestHotEscape covers callee allocations one and two calls below a
// //hot:path function, boxing inside the hot body, and the negatives:
// constant-size local makes in callees (escape-exempt), pure indexing
// callees and hot-annotated callees policed in their own body.
func TestHotEscape(t *testing.T) {
	analysistest.Run(t, "../testdata", hotescape.Analyzer, "hotescape", "hotescape_ok")
}

// TestHotEscapeBody covers make/append/map-range positives inside
// //hot:path bodies (closures included) and the unannotated-helper,
// preallocated-probe and map-read negatives.
func TestHotEscapeBody(t *testing.T) {
	analysistest.Run(t, "../testdata", hotescape.Analyzer, "hotescape_body", "hotescape_body_ok")
}
