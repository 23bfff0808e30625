package service_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// submitRefusesName submits a spec whose name its verb does not know and
// requires an error from Submit, a 400 over HTTP, the same error from
// RunSpec, no spec sidecar in the state directory and no tracked job. The
// document is written by hand, since every spec builder validates and so
// refuses the name itself.
func submitRefusesName(t *testing.T, verb, name string) {
	t.Helper()
	dir := t.TempDir()
	svc, _ := newService(t, dir, 1, 1)
	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()
	spec := core.Spec{Schema: core.SpecSchemaV1, Run: core.Command{Verb: verb, Name: name}, Seed: 7}
	doc := []byte(fmt.Sprintf(`{"schema":"spec.v1","run":{"verb":%q,"name":%q},"seed":7,"faults":{}}`, verb, name))
	_, status, err := svc.Submit(doc)
	if err == nil {
		t.Fatalf("Submit(%s) = %q, want an error", spec.Run, status)
	}
	if code, _ := postSpec(t, ts.URL, doc); code != http.StatusBadRequest {
		t.Fatalf("HTTP submit of %s: code %d, want 400", spec.Run, code)
	}
	if _, runErr := service.RunSpec(spec, service.RunOptions{}); runErr == nil || runErr.Error() != err.Error() {
		t.Fatalf("RunSpec(%s) error %v, want the Submit error %v", spec.Run, runErr, err)
	}
	if sidecars, _ := filepath.Glob(filepath.Join(dir, "*.spec.json")); len(sidecars) != 0 {
		t.Fatalf("refused %s wrote sidecars %v", spec.Run, sidecars)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused %s left %d jobs", spec.Run, len(jobs))
	}
}

// TestSubmitRejectsUnknownName refuses one unknown name per verb before
// any study is built or anything is stored.
func TestSubmitRejectsUnknownName(t *testing.T) {
	for _, verb := range []string{"experiment", "attack", "defend", "export"} {
		t.Run(verb, func(t *testing.T) { submitRefusesName(t, verb, "nosuch") })
	}
}

// TestNameCaseIsExact refuses a registered name spelled in another letter
// case, so one command cannot hold two cache entries under two
// fingerprints.
func TestNameCaseIsExact(t *testing.T) {
	for _, tc := range []struct{ verb, name string }{
		{"experiment", "Table1"},
		{"experiment", "ALL"},
		{"attack", "Spatial"},
		{"defend", "Stratum"},
		{"export", "Figure3"},
	} {
		t.Run(tc.verb+"_"+tc.name, func(t *testing.T) { submitRefusesName(t, tc.verb, tc.name) })
	}
	svc, _ := newService(t, t.TempDir(), 1, 1)
	defer svc.Drain()
	view, status, err := svc.Submit(canonical(t, buildSpec(t, "experiment", "table1", 7)))
	if err != nil || status != service.SubmitAccepted {
		t.Fatalf("Submit(experiment table1) = %q, %v; want accepted", status, err)
	}
	if done, _ := svc.Wait(view.ID); done.State != service.StateDone {
		t.Fatalf("experiment table1 ended %q: %s", done.State, done.Error)
	}
}
