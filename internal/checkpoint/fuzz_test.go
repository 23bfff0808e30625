package checkpoint

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary lines to the frame decoder: it must
// return the exact checksummed payload or a typed error — never panic, and
// never return a payload whose checksum does not verify.
func FuzzDecodeFrame(f *testing.F) {
	good, err := EncodeFrame([]byte(`{"kind":"result","task":1,"seed":42}`))
	if err != nil {
		f.Fatal(err)
	}
	good = bytes.TrimSuffix(good, []byte("\n"))
	f.Add(good)
	f.Add([]byte(`{"sum":"00000000","p":{"a":1}}`))
	f.Add([]byte(`{"sum":"deadbeef"}`))
	f.Add([]byte(``))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, line []byte) {
		payload, err := DecodeFrame(line)
		if err != nil {
			return
		}
		// Whatever decoded must re-frame to a line that decodes to the same
		// payload: the checksum actually covered these bytes.
		reframed, err := EncodeFrame(payload)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		back, err := DecodeFrame(bytes.TrimSuffix(reframed, []byte("\n")))
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("re-framed payload diverged: %q vs %q (%v)", back, payload, err)
		}
	})
}

// FuzzReadJournal feeds arbitrary journal images to the replay reader:
// arbitrary truncation and bit flips must yield a typed error or a valid
// prefix, never a panic or a silent misparse. The prefix property is
// checked directly: re-reading only the records the reader accepted must
// reproduce them exactly.
func FuzzReadJournal(f *testing.F) {
	img := sampleJournal(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:len(img)-3])
	f.Add(append(append([]byte{}, img...), "garbage tail with no newline"...))
	f.Add([]byte(`{"schema":"ckpt.v1"}`))
	f.Add([]byte{})
	// Torn headers — the on-disk shape a crash during the very first write
	// leaves: a header frame cut mid-line, with and without an embedded
	// spec document (whose inner JSON braces must not confuse the framer).
	hdrEnd := bytes.IndexByte(img, '\n')
	if hdrEnd < 0 {
		f.Fatal("sample journal has no header line")
	}
	f.Add(img[:hdrEnd/2])
	f.Add(img[:hdrEnd]) // complete header bytes but no terminating newline
	spec := sampleSpecJournal(f)
	specEnd := bytes.IndexByte(spec, '\n')
	if specEnd < 0 {
		f.Fatal("spec journal has no header line")
	}
	f.Add(spec)
	f.Add(spec[:specEnd/2])
	f.Add(spec[:specEnd*3/4])
	f.Add(spec[:specEnd])
	f.Fuzz(func(t *testing.T, data []byte) {
		log, _, err := parse(data, "")
		if err != nil {
			return
		}
		for _, rec := range log.Records {
			if !rec.Kind.valid() {
				t.Fatalf("invalid kind %q survived parsing", rec.Kind)
			}
			if rec.Task < 0 {
				t.Fatalf("negative task %d survived parsing", rec.Task)
			}
		}
		if n := len(log.results); n > len(log.Records) {
			t.Fatalf("%d replayable results from %d records", n, len(log.Records))
		}
	})
}

// sampleJournal renders a small in-memory journal image for seeding.
func sampleJournal(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	j, err := CreateJournal(dir+"/seed.ckpt", Fingerprint("fuzz"), JournalOptions{})
	if err != nil {
		f.Fatal(err)
	}
	recs := []Record{
		{Kind: KindResult, Task: 0, Seed: 1, Output: []byte("a")},
		{Kind: KindQuarantine, Task: 1, Seed: 2, Panic: "p", Stack: "s"},
		{Kind: KindExhausted, Task: 2, Seed: 3, Error: "budget"},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/seed.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sampleSpecJournal renders a journal whose header embeds a canonical spec
// document plus one record — the partitiond on-disk shape.
func sampleSpecJournal(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	spec := []byte(`{"version":1,"run":{"kind":"experiment","target":"all"},"seed":1}`)
	j, err := CreateJournal(dir+"/spec.ckpt", Fingerprint("fuzz-spec"), JournalOptions{Spec: spec})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindResult, Task: 0, Seed: 9, Output: []byte("out")}); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/spec.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	return data
}
