package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/service"
)

// Crash-point exploration for partitiond's durability stack (DESIGN.md §15).
// A recording run of a checkpointed `experiment all` over a passthrough
// ChaosFS enumerates every durability point the write-ahead protocol
// touches — spec sidecar, journal header and appends, the result file
// with its metadata header, and their fsync/rename/dirsync commits. For each point the run is replayed
// with a simulated crash there (torn final write included), the daemon is
// restarted over the surviving bytes, and the recovered output must be
// byte-identical to the uninterrupted run.
//
// By default a structural sample of points runs (first of every
// kind×artifact combination, the torn-frame journal appends, the commit
// tail). CHAOS_EXHAUSTIVE=1 — what `make chaos` sets — explores every
// point in both crash models.

// chaosSpec builds the experiment-all document the harness submits. It is
// marshalled non-canonically so Workers:1 survives parsing: a sequential
// run gives every replay the same durability-point numbering. The
// fingerprint is unaffected — workers are output-neutral and zeroed by
// canonicalization.
func chaosSpec(t testing.TB) (raw []byte, fp string) {
	t.Helper()
	spec := core.SpecFromOptions(1, core.WithWorkers(1))
	spec.Run = core.Command{Verb: "experiment", Name: "all"}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	fp, err = spec.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return raw, fp
}

// chaosBaseline runs the spec to completion over a recording passthrough
// ChaosFS and returns the output bytes plus the full durability-point log.
func chaosBaseline(t *testing.T) (output []byte, ops []iofault.Op) {
	t.Helper()
	rec := iofault.NewChaos(iofault.Config{})
	svc, _, err := service.New(service.Config{StateDir: t.TempDir(), Workers: 1, Queue: 2, FS: rec})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	raw, fp := chaosSpec(t)
	if _, status, err := svc.Submit(raw); err != nil || status != service.SubmitAccepted {
		t.Fatalf("Submit: status=%s err=%v", status, err)
	}
	view, ok := svc.Wait(fp)
	if !ok || view.State != service.StateDone {
		t.Fatalf("baseline run: state=%s err=%q", view.State, view.Error)
	}
	output, exit, ok := svc.Result(fp)
	if !ok || exit != 0 {
		t.Fatalf("baseline result: ok=%v exit=%d", ok, exit)
	}
	svc.Drain()
	return output, rec.Ops()
}

// chaosClass names the artifact a durability point commits, for sampling
// and failure messages.
func chaosClass(op iofault.Op) string {
	if op.Kind == iofault.OpSyncDir {
		return "dir"
	}
	base := filepath.Base(op.Path)
	switch {
	case strings.Contains(base, ".spec.json"):
		return "spec"
	case strings.Contains(base, ".ckpt"):
		return "journal"
	case strings.Contains(base, ".result"):
		return "result"
	}
	return "other"
}

// samplePoints picks the structurally distinct crash points: the first
// occurrence of every kind×artifact combination, the torn-frame journal
// appends (first record after the header, a middle record, the final
// record), and the last two points — the commit tail of the result write.
func samplePoints(ops []iofault.Op) []int {
	picked := map[int]bool{}
	firsts := map[string]bool{}
	var journalWrites []int
	for _, op := range ops {
		key := string(op.Kind) + "/" + chaosClass(op)
		if !firsts[key] {
			firsts[key] = true
			picked[op.Seq] = true
		}
		if op.Kind == iofault.OpWrite && chaosClass(op) == "journal" {
			journalWrites = append(journalWrites, op.Seq)
		}
	}
	if n := len(journalWrites); n > 1 {
		picked[journalWrites[1]] = true
		picked[journalWrites[n/2]] = true
		picked[journalWrites[n-1]] = true
	}
	for i := len(ops) - 2; i < len(ops); i++ {
		if i >= 0 {
			picked[ops[i].Seq] = true
		}
	}
	seqs := make([]int, 0, len(picked))
	for seq := range picked {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// crashAndRecover replays the run with a crash at the given point, applies
// the selected durability model to the surviving bytes, restarts the
// daemon over them, and asserts the job's recovered output is byte-for-byte
// the baseline.
func crashAndRecover(t *testing.T, baseline []byte, point int, dropUnsynced bool) {
	t.Helper()
	dir := t.TempDir()
	c := iofault.NewChaos(iofault.Config{CrashAt: point, DropUnsynced: dropUnsynced})
	svc, _, err := service.New(service.Config{StateDir: dir, Workers: 1, Queue: 2, FS: c})
	if err != nil {
		t.Fatalf("service.New over chaos FS: %v", err)
	}
	raw, fp := chaosSpec(t)
	// A crash inside the spec sidecar's own commit surfaces as a Submit
	// error — the daemon died before admission. Every later point admits
	// the job and fails it; either way the run must reach a terminal state.
	if _, _, err := svc.Submit(raw); err == nil {
		if view, ok := svc.Wait(fp); !ok || !view.State.Terminal() {
			t.Fatalf("crashed run not terminal: state=%s", view.State)
		}
	}
	svc.Drain()
	if !c.Crashed() {
		t.Fatalf("crash point %d never fired (%d points this run)", point, c.Points())
	}
	if err := c.ApplyCrash(); err != nil {
		t.Fatalf("ApplyCrash: %v", err)
	}

	// Reboot on the real filesystem over whatever survived.
	svc2, resurrected, err := service.New(service.Config{StateDir: dir, Workers: 1, Queue: 2})
	if err != nil {
		t.Fatalf("restart after crash at point %d: %v", point, err)
	}
	defer svc2.Drain()
	for _, id := range resurrected {
		if view, ok := svc2.Wait(id); !ok || view.State != service.StateDone {
			t.Fatalf("resurrected job %s after crash at point %d: state=%s err=%q",
				id, point, view.State, view.Error)
		}
	}
	// Submitting again covers every surviving shape: a completed commit is
	// served from the cache, a resurrected job coalesces, a run whose
	// sidecar never became durable starts fresh.
	view, status, err := svc2.Submit(raw)
	if err != nil {
		t.Fatalf("resubmit after crash at point %d: %v", point, err)
	}
	if status != service.SubmitCached {
		if view, _ = svc2.Wait(fp); view.State != service.StateDone {
			t.Fatalf("recovery run after crash at point %d: state=%s err=%q",
				point, view.State, view.Error)
		}
	}
	output, exit, ok := svc2.Result(fp)
	if !ok || exit != 0 {
		t.Fatalf("recovered result after crash at point %d: ok=%v exit=%d", point, ok, exit)
	}
	if !bytes.Equal(output, baseline) {
		t.Fatalf("crash at point %d: recovered output differs from the uninterrupted run (%d vs %d bytes)",
			point, len(output), len(baseline))
	}
}

// TestChaosCrashPointRecovery is the exhaustive crash-point proof: every
// durability point of the write-ahead protocol, crashed and recovered
// byte-identically. Sampled by default; CHAOS_EXHAUSTIVE=1 explores all
// points under both the truncate-at-point model (torn tails survive) and
// the power-off model (unsynced bytes are lost).
func TestChaosCrashPointRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos exploration is a long test")
	}
	baseline, ops := chaosBaseline(t)
	if len(ops) == 0 {
		t.Fatal("recording run counted no durability points — the FS seam is not threaded")
	}
	kinds := map[iofault.OpKind]bool{}
	classes := map[string]bool{}
	for _, op := range ops {
		kinds[op.Kind] = true
		classes[chaosClass(op)] = true
	}
	for _, k := range []iofault.OpKind{iofault.OpWrite, iofault.OpSync, iofault.OpRename, iofault.OpSyncDir} {
		if !kinds[k] {
			t.Fatalf("no %s point in the recording run", k)
		}
	}
	for _, cl := range []string{"spec", "journal", "result", "dir"} {
		if !classes[cl] {
			t.Fatalf("no durability point touches the %s artifact", cl)
		}
	}

	points := samplePoints(ops)
	if os.Getenv("CHAOS_EXHAUSTIVE") != "" {
		points = points[:0]
		for _, op := range ops {
			points = append(points, op.Seq)
		}
	}
	t.Logf("exploring %d of %d durability points", len(points), len(ops))
	byseq := map[int]iofault.Op{}
	for _, op := range ops {
		byseq[op.Seq] = op
	}
	for _, point := range points {
		op := byseq[point]
		for _, model := range []struct {
			name string
			drop bool
		}{{"truncate", false}, {"poweroff", true}} {
			point, drop := point, model.drop
			t.Run(fmt.Sprintf("%s/point%03d_%s_%s", model.name, point, op.Kind, chaosClass(op)), func(t *testing.T) {
				t.Parallel()
				crashAndRecover(t, baseline, point, drop)
			})
		}
	}
}

// TestChaosInjectedRunDeterminism: two runs with the same chaos seed see
// identical fault sequences and end in identical states — the property
// that makes any chaos failure replayable from its seed alone.
func TestChaosInjectedRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos exploration is a long test")
	}
	type outcome struct {
		state   service.State
		retries int
		faults  int
		log     []string
		output  []byte
	}
	run := func(seed int64) outcome {
		c := iofault.NewChaos(iofault.Config{Seed: seed, WriteErr: 0.04, SyncErr: 0.04})
		svc, _, err := service.New(service.Config{StateDir: t.TempDir(), Workers: 1, Queue: 2, FS: c})
		if err != nil {
			t.Fatalf("service.New: %v", err)
		}
		raw, fp := chaosSpec(t)
		if _, _, err := svc.Submit(raw); err != nil {
			t.Fatalf("Submit under injected faults: %v", err)
		}
		view, _ := svc.Wait(fp)
		svc.Drain()
		o := outcome{state: view.State, retries: view.Retries, faults: c.InjectedFaults()}
		for _, op := range c.Ops() {
			path := filepath.Base(op.Path)
			if op.Kind == iofault.OpSyncDir {
				path = "dir" // the state dir's basename differs per run
			}
			o.log = append(o.log, fmt.Sprintf("%d %s %s %s", op.Seq, op.Kind, path, op.Injected))
		}
		if out, exit, ok := svc.Result(fp); ok && exit == 0 {
			o.output = out
		}
		return o
	}
	a, b := run(1109), run(1109)
	if a.state != b.state || a.retries != b.retries || a.faults != b.faults {
		t.Fatalf("same seed diverged: %s/%d/%d vs %s/%d/%d",
			a.state, a.retries, a.faults, b.state, b.retries, b.faults)
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("same seed drew different op logs: %d vs %d points", len(a.log), len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("op %d diverged:\n  %s\n  %s", i, a.log[i], b.log[i])
		}
	}
	if !bytes.Equal(a.output, b.output) {
		t.Fatal("same seed produced different outputs")
	}
	if a.faults == 0 {
		t.Fatal("the chosen seed injected no faults — the determinism claim is vacuous")
	}
	if a.state == service.StateDone && a.retries == 0 && a.faults > 0 {
		// Faults landed yet the job never retried: only possible if every
		// fault hit a read path, which this config cannot inject.
		t.Fatalf("%d faults injected but the job neither retried nor failed", a.faults)
	}
}
