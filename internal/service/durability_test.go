package service_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iofault"
	"repro/internal/service"
)

// newChaosService builds a service whose persistence runs over the given
// fault injector.
func newChaosService(t *testing.T, dir string, c *iofault.ChaosFS, workers, queue int) (*service.Service, []string) {
	t.Helper()
	svc, resurrected, err := service.New(service.Config{StateDir: dir, Workers: workers, Queue: queue, FS: c})
	if err != nil {
		t.Fatalf("service.New over chaos fs: %v", err)
	}
	return svc, resurrected
}

// TestResurrectQuarantinesCorruptSidecars: a restarted daemon finding spec
// sidecars that do not parse — or parse but fingerprint differently than
// their filename — must quarantine them to `.bad` and surface the count on
// /v1/healthz, not silently treat them as "no job".
func TestResurrectQuarantinesCorruptSidecars(t *testing.T) {
	dir := t.TempDir()
	// A sidecar of undecodable bytes.
	torn := filepath.Join(dir, "aaaa.spec.json")
	if err := os.WriteFile(torn, []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A sidecar that parses fine but is filed under the wrong fingerprint.
	spec := buildSpec(t, "attack", "spatial", 1)
	misfiled := filepath.Join(dir, "bbbb.spec.json")
	if err := os.WriteFile(misfiled, canonical(t, spec), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, resurrected := newService(t, dir, 1, 2)
	defer svc.Drain()
	if len(resurrected) != 0 {
		t.Fatalf("corrupt sidecars resurrected as jobs: %v", resurrected)
	}
	if got := svc.Quarantined(); got != 2 {
		t.Fatalf("Quarantined() = %d, want 2 (%v)", got, svc.QuarantinedArtifacts())
	}
	for _, path := range []string{torn, misfiled} {
		if _, err := os.Stat(path + ".bad"); err != nil {
			t.Fatalf("%s not renamed to .bad: %v", filepath.Base(path), err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s still present after quarantine", filepath.Base(path))
		}
	}

	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()
	code, _, body := get(t, ts.URL+"/v1/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		FaultsQuarantined int `json:"faults_quarantined"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.FaultsQuarantined != 2 {
		t.Fatalf("healthz faults_quarantined = %d, want 2 (%s)", h.FaultsQuarantined, body)
	}
}

// TestCorruptMetaRerunsJob: damage the completion meta in the header of a
// finished job's result file; the restarted daemon must quarantine the
// file, re-run the job from its (still valid) sidecar, and converge on the
// identical result bytes.
func TestCorruptMetaRerunsJob(t *testing.T) {
	dir := t.TempDir()
	spec := buildSpec(t, "attack", "spatial", 1)
	fp := fingerprint(t, spec)

	svc1, _ := newService(t, dir, 1, 2)
	if _, status, err := svc1.Submit(canonical(t, spec)); err != nil || status != service.SubmitAccepted {
		t.Fatalf("submit: %v %v", status, err)
	}
	svc1.Wait(fp)
	first, exit, ok := svc1.Result(fp)
	if !ok || exit != 0 {
		t.Fatalf("first run: ok=%v exit=%d", ok, exit)
	}
	svc1.Drain()

	resultPath := filepath.Join(dir, fp+".result")
	data, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	header, body, found := bytes.Cut(data, []byte("\n"))
	if !found || !bytes.Contains(header, []byte(fp)) || !bytes.Equal(body, first) {
		t.Fatalf("result file does not hold a header naming %s and the output", fp)
	}
	header = bytes.Replace(header, []byte(fp), []byte("not-this-job"), 1)
	if err := os.WriteFile(resultPath, append(append(header, '\n'), body...), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, resurrected := newService(t, dir, 1, 2)
	defer svc2.Drain()
	if len(resurrected) != 1 || resurrected[0] != fp {
		t.Fatalf("resurrected %v, want the damaged job %s", resurrected, fp)
	}
	if svc2.Quarantined() == 0 {
		t.Fatal("corrupt meta was not quarantined")
	}
	svc2.Wait(fp)
	second, exit, ok := svc2.Result(fp)
	if !ok || exit != 0 {
		t.Fatalf("re-run: ok=%v exit=%d", ok, exit)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-run after quarantine diverged from the original result")
	}
}

// TestTransientFaultReadmission: a targeted transient write failure during
// result persistence must re-admit the job (deterministic capped backoff),
// which then succeeds — one retry, correct bytes, no failure surfaced.
func TestTransientFaultReadmission(t *testing.T) {
	dir := t.TempDir()
	spec := buildSpec(t, "attack", "spatial", 1)
	fp := fingerprint(t, spec)

	// Op numbering under one worker: the spec sidecar costs points 1-4
	// (write, sync, rename, syncdir); point 5 is the result file's write.
	c := iofault.NewChaos(iofault.Config{FailOps: []int{5}})
	svc, _ := newChaosService(t, dir, c, 1, 2)
	defer svc.Drain()
	if _, status, err := svc.Submit(canonical(t, spec)); err != nil || status != service.SubmitAccepted {
		t.Fatalf("submit: %v %v", status, err)
	}
	view, ok := svc.Wait(fp)
	if !ok {
		t.Fatal("job lost")
	}
	if view.State != service.StateDone {
		t.Fatalf("job finished %s (%s), want done after re-admission", view.State, view.Error)
	}
	if view.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1", view.Retries)
	}
	if c.InjectedFaults() != 1 {
		t.Fatalf("injected %d faults, want 1", c.InjectedFaults())
	}
	output, _, ok := svc.Result(fp)
	if !ok || len(output) == 0 {
		t.Fatal("no result after re-admission")
	}
}

// TestTransientFaultBudgetExhausted: when every retry keeps hitting
// transient faults the budget caps out and the job fails — but its sidecar
// survives, so a later restart (against a healthy disk) still recovers it.
func TestTransientFaultBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	spec := buildSpec(t, "attack", "spatial", 1)
	fp := fingerprint(t, spec)

	// Fail the result write on the first attempt and all three retries.
	c := iofault.NewChaos(iofault.Config{FailOps: []int{5, 6, 7, 8}})
	svc, _ := newChaosService(t, dir, c, 1, 2)
	if _, status, err := svc.Submit(canonical(t, spec)); err != nil || status != service.SubmitAccepted {
		t.Fatalf("submit: %v %v", status, err)
	}
	view, _ := svc.Wait(fp)
	if view.State != service.StateFailed {
		t.Fatalf("job finished %s, want failed after exhausting retries", view.State)
	}
	if view.Retries != 3 {
		t.Fatalf("retries = %d, want the full budget of 3", view.Retries)
	}
	svc.Drain()
	if _, err := os.Stat(filepath.Join(dir, fp+".spec.json")); err != nil {
		t.Fatalf("sidecar gone after transient-failure exhaustion: %v", err)
	}

	// The healthy restart recovers the job.
	svc2, resurrected := newService(t, dir, 1, 2)
	defer svc2.Drain()
	if len(resurrected) != 1 || resurrected[0] != fp {
		t.Fatalf("healthy restart resurrected %v, want %s", resurrected, fp)
	}
	view2, _ := svc2.Wait(fp)
	if view2.State != service.StateDone {
		t.Fatalf("recovered job finished %s, want done", view2.State)
	}
}
