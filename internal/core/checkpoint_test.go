package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// fakeExps is a doctored experiment list for the runCheckpointed seam: two
// healthy renderers, an injected panic, and an injected watchdog
// exhaustion.
func fakeExps() []experiment {
	return []experiment{
		{"ok1", func(*Study) (string, error) { return "render one\n", nil }},
		{"boom", func(*Study) (string, error) { panic("injected crash") }},
		{"budget", func(*Study) (string, error) {
			return "", fmt.Errorf("trial cancelled: %w", checkpoint.ErrBudget)
		}},
		{"ok2", func(*Study) (string, error) { return "render two\n", nil }},
	}
}

func newTestStudy(t *testing.T, opts ...Option) *Study {
	t.Helper()
	s, err := New(1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointedDegradedRun is the degradation proof at the study level:
// an injected panicking experiment and an injected budget-exhausted one are
// journaled and quarantined, every other experiment completes untouched,
// and the journal records all four outcomes with the right kinds.
func TestCheckpointedDegradedRun(t *testing.T) {
	observer := obs.New(64)
	s := newTestStudy(t, WithObserver(observer))
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := checkpoint.CreateJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		run, err := s.runCheckpointed(fakeExps(), workers, j, nil, true, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if run.Completed() != 2 || !run.Ran[0] || !run.Ran[3] {
			t.Fatalf("workers=%d: completed=%d ran=%v", workers, run.Completed(), run.Ran)
		}
		if run.Outputs[0].Text != "render one\n" || run.Outputs[3].Text != "render two\n" {
			t.Errorf("workers=%d: outputs corrupted: %+v", workers, run.Outputs)
		}
		if len(run.Faults) != 2 {
			t.Fatalf("workers=%d: faults %+v", workers, run.Faults)
		}
		if run.Faults[0].Name != "boom" || run.Faults[0].Kind != checkpoint.KindQuarantine {
			t.Errorf("workers=%d: fault 0 = %+v", workers, run.Faults[0])
		}
		var pe *parallel.PanicError
		if !errors.As(run.Faults[0].Err, &pe) || pe.Value != "injected crash" {
			t.Errorf("workers=%d: panic evidence lost: %v", workers, run.Faults[0].Err)
		}
		if seed := parallel.DeriveSeed(1, 1); pe == nil || !pe.Seeded || pe.Seed != seed || run.Faults[0].Seed != seed {
			t.Errorf("workers=%d: panic not attributed to seed %d: %+v", workers, seed, run.Faults[0])
		}
		if run.Faults[1].Name != "budget" || run.Faults[1].Kind != checkpoint.KindExhausted {
			t.Errorf("workers=%d: fault 1 = %+v", workers, run.Faults[1])
		}
		if !run.Exhausted() {
			t.Errorf("workers=%d: Exhausted() = false", workers)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := checkpoint.LoadJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two passes of 4 experiments journaled 8 records; kinds per pass:
	// 2 results, 1 quarantine (with stack), 1 exhausted.
	if len(log.Records) != 8 {
		t.Fatalf("journal has %d records, want 8", len(log.Records))
	}
	kinds := map[checkpoint.Kind]int{}
	for _, rec := range log.Records {
		kinds[rec.Kind]++
		if rec.Kind == checkpoint.KindQuarantine && rec.Name == "boom" {
			if rec.Panic != "injected crash" || rec.Stack == "" || rec.Input != s.Fingerprint() {
				t.Errorf("quarantine record missing evidence: %+v", rec)
			}
		}
	}
	if kinds[checkpoint.KindResult] != 4 || kinds[checkpoint.KindQuarantine] != 2 || kinds[checkpoint.KindExhausted] != 2 {
		t.Errorf("journal kinds %v", kinds)
	}
	snap := observer.Registry().Snapshot()
	found := 0
	for _, m := range snap.Counters {
		if strings.HasPrefix(m.Name, "checkpoint.journaled") {
			found += int(m.Value)
		}
	}
	if found != 8 {
		t.Errorf("checkpoint.journaled counters sum to %d, want 8", found)
	}
}

// TestCheckpointedTraceInTaskOrder: the checkpoint trace events come in
// task order even when the tasks finish out of order. Task 0 finishes only
// once task 1's record is in the journal, so a sweep that emits each event
// as its task is journaled records task 1 first.
func TestCheckpointedTraceInTaskOrder(t *testing.T) {
	observer := obs.New(64)
	s := newTestStudy(t, WithObserver(observer))
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := checkpoint.CreateJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exps := []experiment{
		{"first", func(*Study) (string, error) {
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if log, err := checkpoint.LoadJournal(path, s.Fingerprint(), checkpoint.JournalOptions{}); err == nil && len(log.Records) > 0 {
					return "one\n", nil
				}
			}
			return "", errors.New("task 1 was never journaled")
		}},
		{"second", func(*Study) (string, error) { return "two\n", nil }},
	}
	if _, err := s.runCheckpointed(exps, 2, j, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range observer.Tracer().Events() {
		if ev.Scope == "checkpoint" {
			got = append(got, fmt.Sprintf("%d:%s", ev.Tick, ev.Type))
		}
	}
	if want := []string{"0:journaled", "1:journaled"}; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint events %v, want task order %v", got, want)
	}
}

// TestCheckpointedFailFast keeps the Map contract when degradation is off:
// nil report, the lowest-index failure (with its seed), and, at one worker,
// no experiment started after it.
func TestCheckpointedFailFast(t *testing.T) {
	s := newTestStudy(t)
	exps := fakeExps()
	exps[3].run = func(*Study) (string, error) { t.Error("experiment after the failure ran"); return "", nil }
	run, err := s.runCheckpointed(exps, 1, nil, nil, false, nil)
	if run != nil || err == nil {
		t.Fatalf("fail-fast run = %+v, %v", run, err)
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || pe.Task != 1 || !pe.Seeded || pe.Seed != parallel.DeriveSeed(1, 1) {
		t.Errorf("fail-fast error = %v, want the task-1 panic with its seed", err)
	}
}

// TestCheckpointedJournalFailureAborts: a journal that cannot record an
// outcome (here, a closed one) aborts the sweep, even in degrade mode, with
// an error wrapping the append failure, and no later experiment runs.
func TestCheckpointedJournalFailureAborts(t *testing.T) {
	s := newTestStudy(t)
	j, err := checkpoint.CreateJournal(filepath.Join(t.TempDir(), "run.ckpt"), s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	exps := fakeExps()
	for i := 1; i < len(exps); i++ {
		exps[i].run = func(*Study) (string, error) { t.Error("experiment after the journal failure ran"); return "", nil }
	}
	run, err := s.runCheckpointed(exps, 1, j, nil, true, nil)
	if run != nil || err == nil {
		t.Fatalf("run over a closed journal = %+v, %v", run, err)
	}
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != "checkpoint: append to closed journal" {
		t.Errorf("error %q does not wrap the append failure", err)
	}
}

// TestCheckpointedResumeReplays: a second run over a complete journal
// replays everything — the experiment bodies must not run again.
func TestCheckpointedResumeReplays(t *testing.T) {
	s := newTestStudy(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	exps := []experiment{
		{"a", func(*Study) (string, error) { return "alpha\n", nil }},
		{"b", func(*Study) (string, error) { return "beta\n", nil }},
	}
	j, err := checkpoint.CreateJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.runCheckpointed(exps, 2, j, nil, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, log, err := checkpoint.ResumeJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	poisoned := []experiment{
		{"a", func(*Study) (string, error) { t.Error("experiment a re-ran"); return "", nil }},
		{"b", func(*Study) (string, error) { t.Error("experiment b re-ran"); return "", nil }},
	}
	run, err := s.runCheckpointed(poisoned, 2, j2, log, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Replayed != 2 || run.Completed() != 2 {
		t.Fatalf("replayed=%d completed=%d", run.Replayed, run.Completed())
	}
	if run.Outputs[0].Text != "alpha\n" || run.Outputs[1].Text != "beta\n" {
		t.Errorf("replayed outputs %+v", run.Outputs)
	}
}

// TestCheckpointedDrain: a quit hook that fires after the first completed
// experiment stops the sweep at the boundary with Stopped set, and a resumed
// run finishes the remainder byte-identically to an uninterrupted one.
func TestCheckpointedDrain(t *testing.T) {
	s := newTestStudy(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	exps := []experiment{
		{"a", func(*Study) (string, error) { return "alpha\n", nil }},
		{"b", func(*Study) (string, error) { return "beta\n", nil }},
		{"c", func(*Study) (string, error) { return "gamma\n", nil }},
	}
	j, err := checkpoint.CreateJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	quit := func() bool { return ran >= 1 }
	counted := make([]experiment, len(exps))
	for i, e := range exps {
		run := e.run
		counted[i] = experiment{e.name, func(st *Study) (string, error) {
			out, err := run(st)
			ran++
			return out, err
		}}
	}
	run, err := s.runCheckpointed(counted, 1, j, nil, true, quit)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Stopped {
		t.Fatal("drained run did not report Stopped")
	}
	if run.Completed() >= len(exps) {
		t.Fatalf("quit hook ignored: %d/%d completed", run.Completed(), len(exps))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, log, err := checkpoint.ResumeJournal(path, s.Fingerprint(), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := s.runCheckpointed(exps, 1, j2, log, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Stopped || resumed.Completed() != 3 || resumed.Replayed == 0 {
		t.Fatalf("resume after drain: %+v", resumed)
	}
	want := []string{"alpha\n", "beta\n", "gamma\n"}
	for i, w := range want {
		if resumed.Outputs[i].Text != w {
			t.Errorf("output %d = %q, want %q", i, resumed.Outputs[i].Text, w)
		}
	}
}

// TestFingerprintSensitivity: the fingerprint keys on everything that
// changes output and nothing that doesn't.
func TestFingerprintSensitivity(t *testing.T) {
	base := newTestStudy(t).Fingerprint()
	if got := newTestStudy(t, WithWorkers(8)).Fingerprint(); got != base {
		t.Error("worker count changed the fingerprint")
	}
	if got := newTestStudy(t, WithObserver(obs.NewMetricsOnly())).Fingerprint(); got != base {
		t.Error("observer changed the fingerprint")
	}
	if got := newTestStudy(t, func(s *Study) { s.Opts.GridSize = 30 }).Fingerprint(); got == base {
		t.Error("grid size did not change the fingerprint")
	}
	if got := newTestStudy(t, func(s *Study) { s.Opts.StepBudget = 10 }).Fingerprint(); got == base {
		t.Error("step budget did not change the fingerprint")
	}
	s2, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Fingerprint() == base {
		t.Error("seed did not change the fingerprint")
	}
}
