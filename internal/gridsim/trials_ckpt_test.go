package gridsim

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

func ckptCfg() (Config, TrialsConfig) {
	return Config{Size: 10, Seed: 5, AttackerShare: 0.3, AttackerRow: 3, AttackerCol: 3},
		TrialsConfig{Trials: 8, Blocks: 4}
}

// TestSupervisedMatchesPlainPath: with a journal attached and nothing
// failing, the ensemble is identical to the un-checkpointed path at any
// worker count.
func TestSupervisedMatchesPlainPath(t *testing.T) {
	cfg, tc := ckptCfg()
	plain, err := RunTrials(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "trials.ckpt")
		j, err := checkpoint.CreateJournal(path, tc.Fingerprint(cfg), checkpoint.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc := tc
		sc.Workers = workers
		sc.Journal = j
		got, err := RunTrials(cfg, sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Trials, plain.Trials) {
			t.Errorf("workers=%d: supervised ensemble diverged from plain path", workers)
		}
		if got.MeanForks != plain.MeanForks || got.MeanCounterfeitShare != plain.MeanCounterfeitShare {
			t.Errorf("workers=%d: summary stats diverged", workers)
		}
		log, err := checkpoint.LoadJournal(path, tc.Fingerprint(cfg), checkpoint.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if log.Results() != tc.Trials {
			t.Errorf("workers=%d: journal has %d results, want %d", workers, log.Results(), tc.Trials)
		}
	}
}

// TestResumeAfterKill: truncate the journal mid-run (simulating a kill at a
// trial boundary plus a half-written tail), resume, and require the final
// ensemble identical to the uninterrupted one — with only the remainder
// re-run.
func TestResumeAfterKill(t *testing.T) {
	cfg, tc := ckptCfg()
	full, err := RunTrials(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	fp := tc.Fingerprint(cfg)
	path := filepath.Join(t.TempDir(), "trials.ckpt")
	j, err := checkpoint.CreateJournal(path, fp, checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc := tc
	sc.Journal = j
	if _, err := RunTrials(cfg, sc); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Kill after the header plus 3 journaled trials, mid-way through the
	// 4th record line.
	lines := 0
	cut := 0
	for i, b := range data {
		if b != '\n' {
			continue
		}
		lines++
		if lines == 4 { // header + 3 records
			cut = i + 1
			break
		}
	}
	if err := os.WriteFile(path, append(data[:cut], data[cut:cut+20]...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, log, err := checkpoint.Resume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated || log.Results() != 3 {
		t.Fatalf("resume log: truncated=%v results=%d", log.Truncated, log.Results())
	}
	rc := tc
	rc.Journal = j2
	rc.Resume = log
	got, err := RunTrials(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Replayed != 3 {
		t.Errorf("replayed %d trials, want 3", got.Replayed)
	}
	if !reflect.DeepEqual(got.Trials, full.Trials) {
		t.Error("resumed ensemble diverged from the uninterrupted run")
	}
	// After the resumed run the journal is complete again.
	log2, err := checkpoint.LoadJournal(path, fp, checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if log2.Truncated || log2.Results() != tc.Trials {
		t.Errorf("final journal: truncated=%v results=%d", log2.Truncated, log2.Results())
	}
}

// TestDegradeQuarantinesBudget: a step budget that cancels every replicate
// yields a degraded result with every trial journaled exhausted, not an
// abort — and no completed trials contaminate the stats.
func TestDegradeQuarantinesBudget(t *testing.T) {
	cfg, tc := ckptCfg()
	path := filepath.Join(t.TempDir(), "trials.ckpt")
	sc := tc
	sc.StepBudget = 5 // far below StepsPerBlock*Blocks
	j, err := checkpoint.CreateJournal(path, sc.Fingerprint(cfg), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Journal = j
	sc.Degrade = true
	got, err := RunTrials(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got.Trials) != 0 || len(got.Faults) != tc.Trials {
		t.Fatalf("degraded result: %d trials, %d faults", len(got.Trials), len(got.Faults))
	}
	for i, f := range got.Faults {
		if f.Trial != i || f.Kind != checkpoint.KindExhausted || !errors.Is(f.Err, checkpoint.ErrBudget) {
			t.Errorf("fault %d = %+v", i, f)
		}
	}
	log, err := checkpoint.LoadJournal(path, sc.Fingerprint(cfg), checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != tc.Trials || log.Results() != 0 {
		t.Errorf("journal: %d records, %d results", len(log.Records), log.Results())
	}
}

// TestFingerprintExcludesWorkers: the ensemble fingerprint must let a
// journal written at one worker count resume at another, but reject a
// differently-parameterized ensemble.
func TestTrialsFingerprint(t *testing.T) {
	cfg, tc := ckptCfg()
	base := tc.Fingerprint(cfg)
	w := tc
	w.Workers = 8
	if w.Fingerprint(cfg) != base {
		t.Error("worker count changed the fingerprint")
	}
	b := tc
	b.Blocks = 9
	if b.Fingerprint(cfg) == base {
		t.Error("blocks did not change the fingerprint")
	}
	cfg2 := cfg
	cfg2.Seed = 6
	if tc.Fingerprint(cfg2) == base {
		t.Error("grid seed did not change the fingerprint")
	}
}
