package integration

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// The crash-safety layer's end-to-end guarantee (DESIGN.md §11): a
// checkpointed `experiment all` killed at any experiment boundary resumes
// to output byte-identical to the uninterrupted golden, at any worker
// count. The tests below simulate the kill by truncating the journal at
// deterministic record boundaries (plus a half-written tail, the shape a
// real SIGKILL leaves) and re-running with a resume log.

// renderCheckpointed reproduces `partition experiment all -seed 1
// -checkpoint ...` byte for byte: the supervised sweep journaling into j,
// replaying from resume.
func renderCheckpointed(t *testing.T, workers int, j *checkpoint.Journal, resume *checkpoint.Log) ([]byte, *core.CheckpointedRun) {
	t.Helper()
	study, err := core.New(1, core.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	run, err := study.RunAllDrainable(workers, j, resume, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for task, out := range run.Outputs {
		if !run.Ran[task] {
			t.Fatalf("experiment %d missing from a clean checkpointed run", task)
		}
		buf.WriteString(out.Text)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), run
}

// studyFingerprint returns the seed-1 journal key.
func studyFingerprint(t *testing.T) string {
	t.Helper()
	study, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	return study.Fingerprint()
}

// killJournal truncates a completed journal to its header plus keep full
// records, then appends a fragment of the next record — the on-disk shape
// of a run killed mid-append.
func killJournal(t *testing.T, path string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := -1
	for i, b := range data {
		if b != '\n' {
			continue
		}
		lines++
		if lines == keep+1 { // header line + keep records
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatalf("journal has fewer than %d records", keep)
	}
	tail := data[cut:]
	if len(tail) > 40 {
		tail = tail[:40]
	}
	if err := os.WriteFile(path, append(data[:cut:cut], tail...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeGolden is the resume-determinism proof: run the checkpointed
// sweep to completion, kill the journal at deterministic experiment
// boundaries, resume at workers 1 and 8, and require output byte-identical
// to the checked-in `experiment all` golden every time.
func TestResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation × several kill points")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	fp := studyFingerprint(t)

	// The uninterrupted checkpointed run is itself golden-identical.
	full := filepath.Join(t.TempDir(), "full.ckpt")
	j, err := checkpoint.CreateJournal(full, fp, checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, run := renderCheckpointed(t, 8, j, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("clean checkpointed run diverged from golden (%d bytes vs %d)", len(got), len(want))
	}
	if run.Replayed != 0 || len(run.Faults) != 0 {
		t.Fatalf("clean run: replayed=%d faults=%d", run.Replayed, len(run.Faults))
	}
	fullBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Kill at an early, a middle, and a late experiment boundary; resume at
	// workers 1 and 8.
	for _, keep := range []int{2, 9, 17} {
		for _, workers := range []int{1, 8} {
			path := filepath.Join(t.TempDir(), "killed.ckpt")
			if err := os.WriteFile(path, fullBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			killJournal(t, path, keep)
			j2, log, err := checkpoint.ResumeJournal(path, fp, checkpoint.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !log.Truncated {
				t.Fatalf("keep=%d: kill fragment not detected", keep)
			}
			got, run := renderCheckpointed(t, workers, j2, log)
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("keep=%d workers=%d: resumed output diverged from golden", keep, workers)
			}
			if run.Replayed != keep {
				t.Errorf("keep=%d workers=%d: replayed %d experiments", keep, workers, run.Replayed)
			}
			// The resumed journal is complete again and loads clean.
			final, err := checkpoint.LoadJournal(path, fp, checkpoint.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if final.Truncated || final.Results() != len(run.Outputs) {
				t.Errorf("keep=%d workers=%d: final journal truncated=%v results=%d",
					keep, workers, final.Truncated, final.Results())
			}
		}
	}
}

// TestResumeRejectsForeignJournal: a journal written for a different study
// configuration must refuse to resume rather than replay wrong outputs.
func TestResumeRejectsForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.ckpt")
	j, err := checkpoint.CreateJournal(path, "0123456789abcdef", checkpoint.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.ResumeJournal(path, studyFingerprint(t), checkpoint.JournalOptions{}); err == nil {
		t.Fatal("foreign journal accepted for resume")
	}
}
