package checkpoint

import (
	"path/filepath"
	"testing"
)

// TestStudyFingerprintStable pins the exported helper: same canonical bytes
// → same fingerprint, different bytes or schema → different.
func TestStudyFingerprintStable(t *testing.T) {
	a := StudyFingerprint("spec.v1", []byte(`{"seed":1}`))
	if a != StudyFingerprint("spec.v1", []byte(`{"seed":1}`)) {
		t.Error("fingerprint not deterministic")
	}
	if a == StudyFingerprint("spec.v1", []byte(`{"seed":2}`)) {
		t.Error("different canonical bytes share a fingerprint")
	}
	if a == StudyFingerprint("spec.v2", []byte(`{"seed":1}`)) {
		t.Error("different schemas share a fingerprint")
	}
}

// TestJournalHeaderEmbedsSpec: CreateWithSpec writes a self-describing
// header, and both Load and Resume hand the spec document back.
func TestJournalHeaderEmbedsSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt")
	spec := []byte(`{"schema":"spec.v1","run":{"verb":"experiment","name":"all"},"seed":1,"faults":{}}`)
	fp := StudyFingerprint("spec.v1", spec)
	j, err := CreateWithSpec(path, fp, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindResult, Task: 0, Seed: 42, Output: []byte("out")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := LoadJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(log.Spec) != string(spec) {
		t.Fatalf("Load spec = %s, want %s", log.Spec, spec)
	}
	j2, log2, err := Resume(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if string(log2.Spec) != string(spec) {
		t.Fatalf("Resume spec = %s", log2.Spec)
	}
	if _, ok := log2.Result(0, 42); !ok {
		t.Error("record lost around the spec header")
	}
}

// TestJournalHeaderWithoutSpec: plain Create journals stay spec-free and
// load fine — the pre-spec format is unchanged.
func TestJournalHeaderWithoutSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.ckpt")
	j, err := CreateJournal(path, "fp-1", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := LoadJournal(path, "fp-1", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if log.Spec != nil {
		t.Fatalf("plain journal carries spec %s", log.Spec)
	}
}
