package service

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iofault"
)

// TestAtomicWriteDurabilityPoints pins the durable-write sequence of one
// persisted artifact: write, fsync, rename, parent-directory fsync — the
// four points the chaos harness crashes at. The old implementation renamed
// unsynced data (no sync points at all); this test is the regression guard
// for the fsync gap.
func TestAtomicWriteDurabilityPoints(t *testing.T) {
	c := iofault.NewChaos(iofault.Config{})
	state, err := newStateDir(t.TempDir(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := state.writeSpec("feedface", []byte(`{"seed":1}`)); err != nil {
		t.Fatal(err)
	}
	want := []iofault.OpKind{iofault.OpWrite, iofault.OpSync, iofault.OpRename, iofault.OpSyncDir}
	ops := c.Ops()
	if len(ops) != len(want) {
		t.Fatalf("writeSpec recorded %d durability points, want %d: %+v", len(ops), len(want), ops)
	}
	for i, k := range want {
		if ops[i].Kind != k {
			t.Fatalf("point %d is %q, want %q", i+1, ops[i].Kind, k)
		}
	}
	if ops[2].Path != state.specPath("feedface") {
		t.Fatalf("rename committed %q, want the sidecar path", ops[2].Path)
	}
}

// TestStateDirGCOrphanedTmp: a crash mid-atomicWrite leaves `*.tmp` debris;
// startup must remove it (the destination artifacts are intact — that is
// the point of the protocol) and report what it removed.
func TestStateDirGCOrphanedTmp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.result.tmp", "b.spec.json.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.result"), []byte("real"), 0o644); err != nil {
		t.Fatal(err)
	}
	state, err := newStateDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	orphans := state.Orphans()
	if len(orphans) != 2 || orphans[0] != "a.result.tmp" || orphans[1] != "b.spec.json.tmp" {
		t.Fatalf("GC'd %v, want the two .tmp files", orphans)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "keep.result" {
		t.Fatalf("state dir after GC: %v, want only keep.result", entries)
	}
}

// TestLoadResultQuarantinesCorruptMeta: a result file whose metadata
// header fails to parse or names a different fingerprint is renamed to
// `.bad` and the lookup misses, so the job re-runs instead of serving
// garbage. A result file of the layout that kept its metadata in a
// separate file has no header: it misses too, but it is not damage, so it
// stays in place and is not counted.
func TestLoadResultQuarantinesCorruptMeta(t *testing.T) {
	state, err := newStateDir(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for fp, data := range map[string]string{
		"aaaa": resultMagic + "{torn\noutput",
		"bbbb": resultMagic + `{"fingerprint":"zzzz","exit":0}` + "\noutput",
		"cccc": "output, no header",
	} {
		if err := os.WriteFile(state.resultPath(fp), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := state.loadResult("aaaa"); ok {
		t.Fatal("torn meta served a result")
	}
	if _, _, ok := state.loadResult("bbbb"); ok {
		t.Fatal("fingerprint-mismatched meta served a result")
	}
	if _, _, ok := state.loadResult("cccc"); ok {
		t.Fatal("a result without a header was served")
	}
	q := state.Quarantined()
	if len(q) != 2 {
		t.Fatalf("quarantined %v, want both corrupt result files", q)
	}
	for _, fp := range []string{"aaaa", "bbbb"} {
		if _, err := os.Stat(state.resultPath(fp) + ".bad"); err != nil {
			t.Fatalf("%s result not renamed to .bad: %v", fp, err)
		}
	}
	if _, err := os.Stat(state.resultPath("cccc")); err != nil {
		t.Fatalf("headerless result moved: %v", err)
	}
}

// readCountingFS passes every call through to the real filesystem and
// counts, per path, the bytes read from a file: a whole-file ReadFile, or
// Read calls on a handle opened read-only.
type readCountingFS struct {
	iofault.FS
	mu    sync.Mutex
	reads map[string]int
}

func (c *readCountingFS) count(path string, n int) {
	c.mu.Lock()
	c.reads[path] += n
	c.mu.Unlock()
}

func (c *readCountingFS) ReadFile(path string) ([]byte, error) {
	data, err := c.FS.ReadFile(path)
	c.count(path, len(data))
	return data, err
}

func (c *readCountingFS) Open(path string) (iofault.File, error) {
	f, err := c.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, path: path}, nil
}

func (c *readCountingFS) OpenFile(path string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		return f, err
	}
	return &countingFile{File: f, fs: c, path: path}, nil
}

// countingFile counts the bytes read through it.
type countingFile struct {
	iofault.File
	fs   *readCountingFS
	path string
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.count(f.path, n)
	return n, err
}

// TestStartupReadsNoResultBodies: a restarting daemon learns which jobs are
// done from the metadata header of their result files, never by reading
// result bodies, which are as large as the job's output. The header is
// still read and validated, a job whose result file is missing still
// counts as unfinished, and a corrupt header is still quarantined.
func TestStartupReadsNoResultBodies(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	body := strings.Repeat("output line\n", 4*resultHeaderMax)
	for _, fp := range []string{"aaaa", "bbbb", "cccc"} { // done
		write(fp+".spec.json", "{}")
		write(fp+".result", resultMagic+`{"fingerprint":"`+fp+`","exit":0}`+"\n"+body)
	}
	write("dddd.spec.json", "{}") // no result: unfinished
	write("eeee.spec.json", "{}") // corrupt header: quarantined, unfinished
	write("eeee.result", resultMagic+"{torn\n"+body)

	fsys := &readCountingFS{FS: iofault.OS, reads: map[string]int{}}
	svc, resurrected, err := New(Config{StateDir: dir, Workers: 1, Queue: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	// The unfinished jobs' sidecars do not parse as specs: resurrection
	// quarantines them instead of running anything, which shows which
	// jobs the scan found unfinished.
	if len(resurrected) != 0 {
		t.Fatalf("resurrected %v, want none", resurrected)
	}
	want := []string{"dddd.spec.json", "eeee.result", "eeee.spec.json"}
	if q := svc.state.Quarantined(); !slices.Equal(q, want) {
		t.Errorf("quarantined %v, want %v", q, want)
	}
	for path, n := range fsys.reads {
		if strings.HasSuffix(path, ".result") && n > resultHeaderMax {
			t.Errorf("start-up read %d bytes of %s, more than its header", n, filepath.Base(path))
		}
	}
	for _, fp := range []string{"aaaa", "bbbb", "cccc", "eeee"} {
		if fsys.reads[svc.state.resultPath(fp)] == 0 {
			t.Errorf("start-up did not read %s's header", fp)
		}
	}
}

// TestReadmitBackoffDeterministic pins the re-admission backoff: same
// (fingerprint, attempt) → same duration; jitter stays in [d/2, d); the
// exponential growth caps.
func TestReadmitBackoffDeterministic(t *testing.T) {
	for attempt := 1; attempt <= maxReadmissions; attempt++ {
		a := readmitBackoff("cafe", attempt)
		if a != readmitBackoff("cafe", attempt) {
			t.Fatalf("attempt %d backoff not deterministic", attempt)
		}
		d := readmitBase << (attempt - 1)
		if d > readmitCap {
			d = readmitCap
		}
		if a < d/2 || a >= d {
			t.Fatalf("attempt %d backoff %v outside [%v, %v)", attempt, a, d/2, d)
		}
	}
	if big := readmitBackoff("cafe", 30); big >= readmitCap {
		t.Fatalf("overflow-prone attempt not capped: %v >= %v", big, readmitCap)
	}
	if readmitBackoff("cafe", 2) == readmitBackoff("beef", 2) {
		t.Fatal("different jobs share a jitter draw — backoffs would synchronize")
	}
	if readmitCap > time.Second {
		t.Fatal("cap drifted past a second; drain latency would suffer")
	}
}

// FuzzStateDirScan throws adversarial directory contents at the startup
// scanner and the result loader: truncated or oversized headers,
// fingerprint-mismatched metadata, headerless results, stray files.
// Neither may panic; a loadResult hit must be backed by a header that
// names the fingerprint it was looked up under, and must return the bytes
// after it; a job the scan finds completed must load.
func FuzzStateDirScan(f *testing.F) {
	f.Add([]byte(resultMagic+`{"fingerprint":"abcd","exit":0}`+"\noutput"), []byte(`{"version":1}`), "stray.txt")
	f.Add([]byte(resultMagic+`{"fingerprint":"zzzz"`), []byte(`not json`), "x.spec.json")
	f.Add([]byte{0xff, 0xfe}, []byte(`{"version":1,"run":{}}`), "y.job.json")
	f.Add([]byte(``), []byte(``), "z.tmp")
	f.Add([]byte(resultMagic+`{"fingerprint":"abcd","exit":3,"faults":1}`+"\n"), []byte(`{}`), "")
	f.Add([]byte("output of the previous layout"), []byte(`{}`), "abcd.job.json")
	f.Fuzz(func(t *testing.T, result, spec []byte, stray string) {
		dir := t.TempDir()
		const fp = "abcd"
		files := map[string][]byte{
			fp + ".spec.json": spec,
			fp + ".result":    result,
		}
		if base := filepath.Base(stray); base == stray && base != "." && base != ".." && stray != "" {
			files[stray] = []byte("stray")
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Skip("unwritable name")
			}
		}
		state, err := newStateDir(dir, nil)
		if err != nil {
			t.Fatalf("newStateDir on adversarial dir: %v", err)
		}
		done := state.completed(fp)
		output, m, ok := state.loadResult(fp)
		if done && !ok {
			t.Fatal("the scan found the job completed, but its result does not load")
		}
		if ok {
			if m.Fingerprint != fp {
				t.Fatalf("loadResult accepted meta for %q under %q", m.Fingerprint, fp)
			}
			if !bytes.HasSuffix(result, output) || len(output) >= len(result) {
				t.Fatalf("loadResult returned %q, not the bytes after the header of %q", output, result)
			}
		}
		if _, err := state.unfinished(); err != nil {
			t.Fatalf("unfinished scan errored: %v", err)
		}
		// The scanner must never mistake quarantined artifacts for live ones.
		for _, name := range state.Quarantined() {
			if filepath.Ext(name) == ".bad" {
				t.Fatalf("quarantine recorded the .bad name %q, want the original", name)
			}
		}
	})
}
