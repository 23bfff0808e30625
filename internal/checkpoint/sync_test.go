package checkpoint

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/iofault"
)

// TestJournalSyncModeSurvivesPowerOff drives the same append sequence
// through a Sync-mode and a flush-only journal over the power-off
// durability model, then "cuts power" (ApplyCrash with DropUnsynced). The
// Sync-mode journal must replay every appended record; the flush-only one
// demonstrates the gap Sync exists to close — its unsynced bytes are gone.
func TestJournalSyncModeSurvivesPowerOff(t *testing.T) {
	recs := []Record{
		{Kind: KindResult, Task: 0, Seed: 1, Output: []byte("r0")},
		{Kind: KindResult, Task: 1, Seed: 2, Output: []byte("r1")},
		{Kind: KindResult, Task: 2, Seed: 3, Output: []byte("r2")},
	}
	write := func(t *testing.T, sync bool) (string, *iofault.ChaosFS) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "run.ckpt")
		c := iofault.NewChaos(iofault.Config{DropUnsynced: true})
		j, err := CreateJournal(path, Fingerprint("sync-test"), JournalOptions{FS: c, Sync: sync})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		// Power is cut here: no Close, no final flush — the crash takes
		// whatever durability the append path itself established.
		if err := c.ApplyCrash(); err != nil {
			t.Fatal(err)
		}
		return path, c
	}

	t.Run("sync", func(t *testing.T) {
		path, _ := write(t, true)
		log, err := LoadJournal(path, Fingerprint("sync-test"), JournalOptions{})
		if err != nil {
			t.Fatalf("load after power-off: %v", err)
		}
		if len(log.Records) != len(recs) {
			t.Fatalf("sync-mode journal replayed %d records after power-off, want %d",
				len(log.Records), len(recs))
		}
	})

	t.Run("flush-only", func(t *testing.T) {
		path, _ := write(t, false)
		log, err := LoadJournal(path, Fingerprint("sync-test"), JournalOptions{})
		if err != nil {
			// The whole file (header included) sat in unsynced pages: a
			// corrupt/empty journal is the expected shape of the gap.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected load error class: %v", err)
			}
			return
		}
		if len(log.Records) == len(recs) {
			t.Fatal("flush-only journal survived power-off intact — the Sync mode would be pointless")
		}
	})
}

// TestJournalSyncPoints pins the durability-point shape of a Sync-mode
// journal: one write+fsync pair per header and per record — the sequence
// the chaos harness enumerates crash points over.
func TestJournalSyncPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := iofault.NewChaos(iofault.Config{})
	j, err := CreateJournal(path, Fingerprint("points"), JournalOptions{FS: c, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindResult, Task: 0, Seed: 1, Output: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := []iofault.OpKind{iofault.OpWrite, iofault.OpSync, iofault.OpWrite, iofault.OpSync}
	ops := c.Ops()
	if len(ops) != len(want) {
		t.Fatalf("recorded %d durability points, want %d: %+v", len(ops), len(want), ops)
	}
	for i, k := range want {
		if ops[i].Kind != k {
			t.Fatalf("point %d is %q, want %q", i+1, ops[i].Kind, k)
		}
	}
}

// TestResumeJournalOverChaosFS exercises the resume path — read, parse,
// truncate corrupt tail, reopen for append — through the seam, including a
// transient injected read failure classified for re-admission.
func TestResumeJournalOverChaosFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	fp := Fingerprint("resume-chaos")
	j, err := CreateJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindResult, Task: 0, Seed: 1, Output: []byte("keep")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Op 1 under ResumeJournal is the reopened file's first write — resume
	// itself performs no durability points, so a clean chaos FS passes.
	c := iofault.NewChaos(iofault.Config{})
	j2, log, err := ResumeJournal(path, fp, JournalOptions{FS: c, Sync: true})
	if err != nil {
		t.Fatalf("resume over chaos fs: %v", err)
	}
	if log.Results() != 1 {
		t.Fatalf("replayed %d results, want 1", log.Results())
	}
	if err := j2.Append(Record{Kind: KindResult, Task: 1, Seed: 2, Output: []byte("more")}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := LoadJournal(path, fp, JournalOptions{})
	if err != nil || final.Results() != 2 {
		t.Fatalf("final journal: %d results, %v", final.Results(), err)
	}

	// A transient fault surfaced by the seam classifies for re-admission.
	bad := iofault.NewChaos(iofault.Config{FailOps: []int{1}})
	j3, _, err := ResumeJournal(path, fp, JournalOptions{FS: bad, Sync: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	err = j3.Append(Record{Kind: KindResult, Task: 2, Seed: 3, Output: []byte("z")})
	if err == nil || !iofault.IsTransient(err) {
		t.Fatalf("append over failing seam should be transient: %v", err)
	}
	j3.Close()
}
