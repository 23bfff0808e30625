package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
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

// specHeaderJournal writes to path a journal image in the format
// partitiond used while journal headers embedded the canonical spec
// document: a header with a "spec" field, then one result record (task 0,
// the given seed, output "out"). It returns the image.
func specHeaderJournal(tb testing.TB, path, fingerprint string, spec []byte, seed int64) []byte {
	tb.Helper()
	hdr, err := json.Marshal(struct {
		Schema      string          `json:"schema"`
		Fingerprint string          `json:"fingerprint"`
		Spec        json.RawMessage `json:"spec"`
	}{SchemaV1, fingerprint, spec})
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := json.Marshal(Record{Kind: KindResult, Task: 0, Seed: seed, Output: []byte("out")})
	if err != nil {
		tb.Fatal(err)
	}
	var img []byte
	for _, payload := range [][]byte{hdr, rec} {
		line, err := encodeFrame(payload)
		if err != nil {
			tb.Fatal(err)
		}
		img = append(img, line...)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		tb.Fatal(err)
	}
	return img
}

// TestJournalHeaderEmbedsSpec: a journal whose header still embeds a spec
// document loads and resumes, and appends after resumption land behind
// the old record.
func TestJournalHeaderEmbedsSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt")
	spec := []byte(`{"schema":"spec.v1","run":{"verb":"experiment","name":"all"},"seed":1,"faults":{}}`)
	fp := StudyFingerprint("spec.v1", spec)
	specHeaderJournal(t, path, fp, spec, 42)
	log, err := LoadJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if log.Fingerprint != fp || len(log.Records) != 1 || log.Truncated {
		t.Fatalf("Load = fingerprint %q, %d records, truncated %v", log.Fingerprint, len(log.Records), log.Truncated)
	}
	j, log2, err := ResumeJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := log2.Result(0, 42); !ok {
		t.Error("record lost behind the spec header")
	}
	if err := j.Append(Record{Kind: KindResult, Task: 1, Seed: 43, Output: []byte("more")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log3, err := LoadJournal(path, fp, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := log3.Result(1, 43); !ok || len(log3.Records) != 2 {
		t.Errorf("resumed append not replayed: %d records", len(log3.Records))
	}
}

// TestJournalHeaderWithoutSpec: CreateJournal writes a header of exactly
// the schema and the fingerprint.
func TestJournalHeaderWithoutSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.ckpt")
	j, err := CreateJournal(path, "fp-1", JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := decodeFrame(bytes.TrimSuffix(data, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"schema":"ckpt.v1","fingerprint":"fp-1"}`; string(payload) != want {
		t.Errorf("header = %s, want %s", payload, want)
	}
}
