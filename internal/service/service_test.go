package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// buildSpec assembles a validated spec the way the CLI flag surface does.
func buildSpec(t *testing.T, verb, name string, seed int64, opts ...core.Option) core.Spec {
	t.Helper()
	spec := core.SpecFromOptions(seed, opts...)
	spec.Run = core.Command{Verb: verb, Name: name}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return spec
}

func canonical(t *testing.T, spec core.Spec) []byte {
	t.Helper()
	doc, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON: %v", err)
	}
	return doc
}

func fingerprint(t *testing.T, spec core.Spec) string {
	t.Helper()
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return fp
}

func newService(t *testing.T, dir string, workers, queue int) (*service.Service, []string) {
	t.Helper()
	svc, resurrected, err := service.New(service.Config{StateDir: dir, Workers: workers, Queue: queue})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	return svc, resurrected
}

// submitReply mirrors the POST /v1/jobs response document.
type submitReply struct {
	Status service.SubmitStatus `json:"status"`
	Job    service.View         `json:"job"`
}

func postSpec(t *testing.T, url string, doc []byte) (int, submitReply) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // test helper; the read error is checked below
	if err != nil {
		t.Fatalf("read submit reply: %v", err)
	}
	var reply submitReply
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("decode submit reply %q: %v", body, err)
		}
	}
	return resp.StatusCode, reply
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // test helper; the read error is checked below
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestDaemonEndToEnd drives the whole HTTP surface: submit a spec, stream
// its NDJSON trace, fetch the result bytes, and observe that resubmitting
// the identical spec coalesces while a differing spec is a fresh job.
func TestDaemonEndToEnd(t *testing.T) {
	svc, resurrected := newService(t, t.TempDir(), 2, 4)
	if len(resurrected) != 0 {
		t.Fatalf("fresh state dir resurrected %v", resurrected)
	}
	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()

	spec := buildSpec(t, "attack", "spatial", 1)
	fp := fingerprint(t, spec)

	code, reply := postSpec(t, ts.URL, canonical(t, spec))
	if code != http.StatusAccepted || reply.Status != service.SubmitAccepted {
		t.Fatalf("submit: code %d status %q, want 202 accepted", code, reply.Status)
	}
	if reply.Job.ID != fp {
		t.Fatalf("job id %q, want spec fingerprint %q", reply.Job.ID, fp)
	}
	if _, ok := svc.Wait(fp); !ok {
		t.Fatalf("Wait(%q): job not tracked", fp)
	}

	// Status reports done with a clean exit.
	code, _, body := get(t, ts.URL+"/v1/jobs/"+fp)
	if code != http.StatusOK {
		t.Fatalf("status: code %d body %s", code, body)
	}
	var view service.View
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if view.State != service.StateDone || view.Exit != service.ExitClean {
		t.Fatalf("job state %q exit %d, want done/0", view.State, view.Exit)
	}

	// The result bytes match an in-process run of the same spec exactly.
	want, err := service.RunSpec(spec, service.RunOptions{})
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	code, header, output := get(t, ts.URL+"/v1/jobs/"+fp+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: code %d body %s", code, output)
	}
	if header.Get("X-Partition-Exit") != "0" {
		t.Fatalf("X-Partition-Exit = %q, want 0", header.Get("X-Partition-Exit"))
	}
	if string(output) != want.Output {
		t.Fatalf("daemon result differs from direct run:\ndaemon: %q\ndirect: %q", output, want.Output)
	}

	// The trace endpoint streams the obs.trace.v1 framing with the events
	// the attack emitted.
	code, header, trace := get(t, ts.URL+"/v1/jobs/"+fp+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: code %d", code)
	}
	if ct := header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	log, err := obs.DecodeJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("decode trace stream: %v", err)
	}
	if len(log.Events) == 0 {
		t.Fatalf("trace stream carried no events:\n%s", trace)
	}

	// Resubmitting the identical spec coalesces on the fingerprint.
	code, reply = postSpec(t, ts.URL, canonical(t, spec))
	if code != http.StatusOK || reply.Status != service.SubmitExists {
		t.Fatalf("resubmit: code %d status %q, want 200 exists", code, reply.Status)
	}

	// A differing seed is a different fingerprint — a fresh job, not a hit.
	other := buildSpec(t, "attack", "spatial", 2)
	code, reply = postSpec(t, ts.URL, canonical(t, other))
	if code != http.StatusAccepted || reply.Status != service.SubmitAccepted {
		t.Fatalf("differing seed: code %d status %q, want 202 accepted", code, reply.Status)
	}
	if reply.Job.ID == fp {
		t.Fatalf("differing seed coalesced onto %q", fp)
	}

	// Unknown jobs are 404s on every job endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/trace"} {
		if code, _, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s: code %d, want 404", path, code)
		}
	}

	code, _, body = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: code %d body %s", code, body)
	}

	// The plan registry renders with canonical parameters.
	code, _, body = get(t, ts.URL+"/v1/plans")
	if code != http.StatusOK || !strings.Contains(string(body), `"spatial"`) {
		t.Fatalf("plans: code %d body %s", code, body)
	}
}

// TestCacheServedAcrossRestart is the content-addressing contract: a new
// daemon over the same state directory serves a previously computed spec
// from the cache, byte-identically, without running anything.
func TestCacheServedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := buildSpec(t, "attack", "doublespend", 3)
	raw := canonical(t, spec)

	svc1, _ := newService(t, dir, 2, 4)
	view, status, err := svc1.Submit(raw)
	if err != nil || status != service.SubmitAccepted {
		t.Fatalf("submit: status %q err %v", status, err)
	}
	svc1.Wait(view.ID)
	out1, exit1, ok := svc1.Result(view.ID)
	if !ok {
		t.Fatalf("first run did not finish done: %+v", mustStatus(t, svc1, view.ID))
	}
	svc1.Drain()

	svc2, resurrected := newService(t, dir, 2, 4)
	if len(resurrected) != 0 {
		t.Fatalf("completed job resurrected: %v", resurrected)
	}
	view2, status2, err := svc2.Submit(raw)
	if err != nil || status2 != service.SubmitCached {
		t.Fatalf("restart submit: status %q err %v, want cached", status2, err)
	}
	if !view2.CacheHit {
		t.Fatalf("cache-served view not marked cache_hit: %+v", view2)
	}
	out2, exit2, ok := svc2.Result(view2.ID)
	if !ok {
		t.Fatalf("cached job has no result")
	}
	if !bytes.Equal(out1, out2) || exit1 != exit2 {
		t.Fatalf("cache-served result differs:\nfirst:  %q (exit %d)\ncached: %q (exit %d)", out1, exit1, out2, exit2)
	}

	// Specs differing in seed, engine sharding, or fault scenario miss.
	for name, other := range map[string]core.Spec{
		"seed":   buildSpec(t, "attack", "doublespend", 4),
		"shards": buildSpec(t, "attack", "doublespend", 3, core.WithShards(4)),
	} {
		_, st, err := svc2.Submit(canonical(t, other))
		if err != nil || st != service.SubmitAccepted {
			t.Fatalf("differing %s: status %q err %v, want accepted", name, st, err)
		}
	}
	svc2.Drain()
}

func mustStatus(t *testing.T, svc *service.Service, id string) service.View {
	t.Helper()
	view, ok := svc.Status(id)
	if !ok {
		t.Fatalf("job %q not tracked", id)
	}
	return view
}

// TestSubmitRefusedWhileDraining pins the admission-control path behind the
// HTTP 429: a draining daemon turns every new spec away.
func TestSubmitRefusedWhileDraining(t *testing.T) {
	svc, _ := newService(t, t.TempDir(), 1, 1)
	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()

	svc.Drain()
	spec := buildSpec(t, "attack", "spatial", 7)
	view, status, err := svc.Submit(canonical(t, spec))
	if err != nil || status != service.SubmitRefused {
		t.Fatalf("draining submit: view %+v status %q err %v, want refused", view, status, err)
	}
	if code, _ := postSpec(t, ts.URL, canonical(t, spec)); code != http.StatusTooManyRequests {
		t.Fatalf("draining HTTP submit: code %d, want 429", code)
	}
}

// TestSubmitRejectsInvalidSpec pins the 400 path.
func TestSubmitRejectsInvalidSpec(t *testing.T) {
	svc, _ := newService(t, t.TempDir(), 1, 1)
	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()
	for _, doc := range []string{
		`not json`,
		`{"schema":"spec.v2","run":{"verb":"experiment","name":"all"},"seed":1,"faults":{}}`,
		`{"schema":"spec.v1","run":{"verb":"conquer","name":"all"},"seed":1,"faults":{}}`,
	} {
		if code, _ := postSpec(t, ts.URL, []byte(doc)); code != http.StatusBadRequest {
			t.Fatalf("submit %q: code %d, want 400", doc, code)
		}
	}
}

// TestSubmitRejectsSpecOverCap refuses a spec whose trace days or grid
// size is one past its cap with a 400 naming the field and the cap, before
// any sidecar is written or job tracked: a job that size would allocate
// gigabytes at start-up, and a sidecar would re-admit it at every restart.
func TestSubmitRejectsSpecOverCap(t *testing.T) {
	dir := t.TempDir()
	svc, _ := newService(t, dir, 1, 1)
	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()
	for _, c := range []struct {
		field string
		cap   int
	}{
		{"tablev_trace_days", 366},
		{"figure6a_days", 366},
		{"grid_size", 1000},
	} {
		doc := fmt.Sprintf(`{"schema":"spec.v1","run":{"verb":"experiment","name":"all"},"seed":1,%q:%d,"faults":{}}`, c.field, c.cap+1)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // the read error is checked below
		if err != nil {
			t.Fatalf("read submit reply: %v", err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s over cap: code %d, want 400", c.field, resp.StatusCode)
		}
		if want := fmt.Sprintf("cap of %d", c.cap); !strings.Contains(string(body), c.field) || !strings.Contains(string(body), want) {
			t.Errorf("%s over cap: reply %s does not name the field and %q", c.field, body, want)
		}
	}
	if sidecars, _ := filepath.Glob(filepath.Join(dir, "*.spec.json")); len(sidecars) != 0 {
		t.Fatalf("refused specs wrote sidecars %v", sidecars)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused specs left %d jobs", len(jobs))
	}
}

// TestSubmitRejectsOversizedSpec pins the 413 path: a body one byte over
// the bound is refused whole, even when the cut would fall after a valid
// spec document (here, inside its trailing whitespace).
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	svc, _ := newService(t, t.TempDir(), 1, 1)
	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()
	doc := canonical(t, buildSpec(t, "attack", "spatial", 7))
	body := append(doc, bytes.Repeat([]byte(" "), service.MaxSpecBytes+1-len(doc))...)
	if code, _ := postSpec(t, ts.URL, body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: code %d, want 413", code)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized submit admitted %d jobs", len(jobs))
	}
}

// TestDrainRestartResume is the graceful-drain half of the tentpole
// contract: a daemon drained mid-`experiment all` stops at an experiment
// boundary with the journal intact, and a new daemon over the same state
// directory resumes the job and completes it byte-identical to an
// uninterrupted run.
func TestDrainRestartResume(t *testing.T) {
	spec := buildSpec(t, "experiment", "all", 1, core.WithWorkers(1))
	// Submit the marshaled (non-canonical) document so Workers:1 survives
	// parsing — the run stays sequential, which keeps the drain landing
	// mid-sweep. The fingerprint is unaffected: workers are output-neutral
	// and zeroed by canonicalization.
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	fp := fingerprint(t, spec)

	// Baseline: the uninterrupted run.
	svcA, _ := newService(t, t.TempDir(), 1, 1)
	viewA, statusA, err := svcA.Submit(raw)
	if err != nil || statusA != service.SubmitAccepted {
		t.Fatalf("baseline submit: status %q err %v", statusA, err)
	}
	svcA.Wait(viewA.ID)
	wantOut, wantExit, ok := svcA.Result(viewA.ID)
	if !ok {
		t.Fatalf("baseline did not finish done: %+v", mustStatus(t, svcA, viewA.ID))
	}
	svcA.Drain()

	// Interrupted: drain as soon as the first experiment is journaled.
	dir := t.TempDir()
	svcB, _ := newService(t, dir, 1, 1)
	if _, status, err := svcB.Submit(raw); err != nil || status != service.SubmitAccepted {
		t.Fatalf("submit: status %q err %v", status, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for journaled(t, svcB, fp) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no experiment journaled before deadline: %+v", mustStatus(t, svcB, fp))
		}
		time.Sleep(time.Millisecond)
	}
	svcB.Drain()
	view := mustStatus(t, svcB, fp)
	if view.State != service.StateInterrupted {
		t.Fatalf("drained job state %q, want interrupted (drain landed too late to split the run)", view.State)
	}

	// Restart over the same state directory: the sidecar resurrects the
	// job, the journal replays the completed prefix, and the finished
	// result is byte-identical to the uninterrupted baseline.
	svcC, resurrected := newService(t, dir, 1, 1)
	if len(resurrected) != 1 || resurrected[0] != fp {
		t.Fatalf("resurrected %v, want [%s]", resurrected, fp)
	}
	final, ok := svcC.Wait(fp)
	if !ok {
		t.Fatalf("resumed job not tracked")
	}
	if final.State != service.StateDone {
		t.Fatalf("resumed job state %q error %q, want done", final.State, final.Error)
	}
	if final.Replayed == 0 {
		t.Fatalf("resumed job replayed nothing — it re-ran the whole sweep")
	}
	gotOut, gotExit, ok := svcC.Result(fp)
	if !ok {
		t.Fatalf("resumed job has no result")
	}
	if gotExit != wantExit {
		t.Fatalf("resumed exit %d, want %d", gotExit, wantExit)
	}
	if !bytes.Equal(gotOut, wantOut) {
		t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(gotOut), len(wantOut))
	}
	svcC.Drain()
}

// journaled counts the checkpoint-journal trace events the job has emitted.
func journaled(t *testing.T, svc *service.Service, id string) int {
	t.Helper()
	events, _, _, ok := svc.TraceSince(id, 0)
	if !ok {
		t.Fatalf("TraceSince(%q): job not tracked", id)
	}
	n := 0
	for _, ev := range events {
		if ev.Scope == "checkpoint" && ev.Type == "journaled" {
			n++
		}
	}
	return n
}
