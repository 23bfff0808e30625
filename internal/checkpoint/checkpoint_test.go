package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeSample builds a journal with three records of the three kinds and
// returns its path and fingerprint.
func writeSample(t *testing.T) (string, string) {
	t.Helper()
	fp := Fingerprint("test-run", "seed=1")
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := CreateJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindResult, Task: 0, Seed: 101, Name: "table1", Output: []byte("rendered table\n")},
		{Kind: KindQuarantine, Task: 1, Seed: 102, Name: "table2", Panic: "boom", Stack: "stack...", Input: "fp"},
		{Kind: KindExhausted, Task: 2, Seed: 103, Name: "figure7", Error: "step budget"},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, fp
}

func TestJournalRoundtrip(t *testing.T) {
	path, fp := writeSample(t)
	log, err := LoadJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("clean journal reported truncated")
	}
	if len(log.Records) != 3 {
		t.Fatalf("want 3 records, got %d", len(log.Records))
	}
	out, ok := log.Result(0, 101)
	if !ok || string(out) != "rendered table\n" {
		t.Fatalf("Result(0,101) = %q, %v", out, ok)
	}
	if _, ok := log.Result(0, 999); ok {
		t.Error("seed mismatch must not replay")
	}
	if _, ok := log.Result(1, 102); ok {
		t.Error("quarantined task must not replay")
	}
	if _, ok := log.Result(2, 103); ok {
		t.Error("exhausted task must not replay")
	}
	if log.Results() != 1 {
		t.Errorf("want 1 replayable result, got %d", log.Results())
	}
}

func TestResumeRecoversAndContinues(t *testing.T) {
	path, fp := writeSample(t)
	// Simulate a crash mid-append: a half-written line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"sum":"deadbeef","p":{"kind":"res`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j, log, err := Resume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Error("corrupt tail not reported")
	}
	if len(log.Records) != 3 {
		t.Fatalf("want the 3-record valid prefix, got %d", len(log.Records))
	}
	// The journal must be appendable after tail truncation.
	if err := j.Append(Record{Kind: KindResult, Task: 3, Seed: 104, Output: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = LoadJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated || len(log.Records) != 4 {
		t.Fatalf("after resume+append: truncated=%v records=%d", log.Truncated, len(log.Records))
	}
}

func TestBitFlipStopsAtValidPrefix(t *testing.T) {
	path, fp := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Flip one payload byte inside the second record (line index 2).
	corrupt := append([]byte(nil), data...)
	off := len(lines[0]) + len(lines[1]) + len(lines[2])/2
	corrupt[off] ^= 0x20
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := LoadJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Error("bit flip not detected")
	}
	if len(log.Records) != 1 {
		t.Fatalf("want the 1-record valid prefix, got %d", len(log.Records))
	}
}

func TestHeaderValidation(t *testing.T) {
	path, fp := writeSample(t)
	if _, err := LoadJournal(path, "0000000000000000", JournalOptions{}); !errors.Is(err, ErrFingerprint) {
		t.Errorf("fingerprint mismatch: got %v", err)
	}
	// Any fingerprint is accepted when the expectation is empty.
	if _, err := LoadJournal(path, "", JournalOptions{}); err != nil {
		t.Errorf("empty expectation rejected: %v", err)
	}

	// An unknown schema is a hard error, not a truncation.
	bad, err := EncodeFrame([]byte(`{"schema":"ckpt.v999","fingerprint":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := parse(bad, ""); !errors.Is(err, ErrSchema) {
		t.Errorf("unknown schema: got %v", err)
	}
	// A headerless file is corrupt.
	if _, _, err := parse([]byte("not a journal"), fp); !errors.Is(err, ErrCorrupt) {
		t.Errorf("headerless file: got %v", err)
	}
}

func TestAppendValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.ckpt")
	j, err := CreateJournal(path, "fp", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: "bogus", Task: 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := j.Append(Record{Kind: KindResult, Task: -1}); err == nil {
		t.Error("negative task accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindResult, Task: 0}); err == nil {
		t.Error("append after close accepted")
	}
	if err := j.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}

	// Nil journal: every operation is a cheap no-op.
	var nilJ *Journal
	if err := nilJ.Append(Record{Kind: KindResult, Task: 0}); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if err := nilJ.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	payload := []byte(`{"kind":"result","task":7}`)
	line, err := EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("frame line missing newline")
	}
	got, err := DecodeFrame(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload changed: %q -> %q", payload, got)
	}
	if _, err := EncodeFrame([]byte("not json")); err == nil {
		t.Error("non-JSON payload accepted")
	}
	if _, err := DecodeFrame([]byte(`{"sum":"00000000","p":{"a":1}}`)); !errors.Is(err, ErrCorrupt) {
		t.Error("checksum mismatch not detected")
	}
}

func TestFingerprint(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("fingerprint must separate parts")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Error("fingerprint not stable")
	}
	if len(Fingerprint()) != 16 {
		t.Error("fingerprint not 16 hex digits")
	}
}
