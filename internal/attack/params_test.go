package attack

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPlanParamsCoverRegistry: every registered plan has a non-empty
// parameter document. (A document for a plan that does not exist cannot be
// written: the document is a field of the registry entry.)
func TestPlanParamsCoverRegistry(t *testing.T) {
	for _, name := range PlanNames() {
		doc, err := PlanParams(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var decoded map[string]any
		if err := json.Unmarshal(doc, &decoded); err != nil {
			t.Errorf("%s: params not an object: %v", name, err)
		}
		if len(decoded) == 0 {
			t.Errorf("%s: empty parameter document", name)
		}
	}
}

// TestPlanParamsStable: the rendering is deterministic (sorted keys) — it
// feeds the /v1/plans endpoint, which must be byte-stable.
func TestPlanParamsStable(t *testing.T) {
	a, err := PlanParams("temporal")
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanParams("temporal")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("unstable rendering:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"attacker_share":0.3`) {
		t.Errorf("temporal params %s", a)
	}
}

// TestPlanParamsUnknown mirrors RunPlan's unknown-name contract.
func TestPlanParamsUnknown(t *testing.T) {
	_, err := PlanParams("warpdrive")
	if err == nil || !strings.Contains(err.Error(), "registry") {
		t.Fatalf("unknown plan error = %v", err)
	}
}
