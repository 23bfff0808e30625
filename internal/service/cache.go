package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/iofault"
)

// The state directory is the daemon's only persistence: every artifact is
// keyed by the spec fingerprint, so the layout IS the content-addressed
// cache and doubles as the crash/restart protocol.
//
//	<fp>.spec.json — the submitted spec, written before the job is admitted
//	                 (the write-ahead record a restarted daemon rebuilds from)
//	<fp>.ckpt      — the checkpoint journal of an `experiment all` job
//	<fp>.result    — the raw output bytes, written atomically on completion
//	<fp>.job.json  — the completion metadata (exit code), written after .result
//	*.bad          — quarantined corrupt artifacts, kept for forensics
//
// A spec sidecar without a result marks an unfinished job; Resurrect
// resubmits those on startup, resuming any journal. Results are immutable
// once written — a fingerprint collision-free spec always reproduces the
// same bytes, so the cache never needs invalidation.
//
// All I/O goes through the iofault seam (DESIGN.md §15): the production
// path is the OSFS passthrough, the chaos harness swaps in a fault
// injector. Corrupt artifacts discovered at read time are quarantined —
// renamed to `.bad` and counted — instead of being silently treated as
// absent, so "no job" and "damaged job" stay distinguishable.
type stateDir struct {
	dir string
	fs  iofault.FS

	mu          sync.Mutex
	quarantined []string
	orphans     []string
}

func newStateDir(dir string, fsys iofault.FS) (*stateDir, error) {
	fsys = iofault.OrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	s := &stateDir{dir: dir, fs: fsys}
	if err := s.gcOrphans(); err != nil {
		return nil, err
	}
	return s, nil
}

// gcOrphans removes `*.tmp` files a crash mid-atomicWrite left behind. They
// are not quarantined: an orphaned temp file is the atomic protocol working
// as designed (the rename never happened, the destination is intact) — but
// left in place it would leak space and confuse directory listings forever.
func (s *stateDir) gcOrphans() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("service: scan state dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			continue // still usable; the next restart retries
		}
		s.mu.Lock()
		s.orphans = append(s.orphans, name)
		s.mu.Unlock()
	}
	return nil
}

// quarantine renames a corrupt artifact to `.bad`, keeping the evidence out
// of the protocol's way, and counts it for the /v1/healthz gauge. A failed
// rename (e.g. under an injected fault) leaves the artifact in place — the
// next reader will retry the quarantine.
func (s *stateDir) quarantine(path string) {
	if err := s.fs.Rename(path, path+".bad"); err != nil {
		return
	}
	s.mu.Lock()
	s.quarantined = append(s.quarantined, filepath.Base(path))
	s.mu.Unlock()
}

// Quarantined returns the quarantined artifact names (sorted) — the
// healthz gauge and the startup log line.
func (s *stateDir) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.quarantined...)
	sort.Strings(out)
	return out
}

// Orphans returns the names of the temp files garbage-collected at startup.
func (s *stateDir) Orphans() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.orphans...)
	sort.Strings(out)
	return out
}

func (s *stateDir) specPath(fp string) string    { return filepath.Join(s.dir, fp+".spec.json") }
func (s *stateDir) journalPath(fp string) string { return filepath.Join(s.dir, fp+".ckpt") }
func (s *stateDir) resultPath(fp string) string  { return filepath.Join(s.dir, fp+".result") }
func (s *stateDir) metaPath(fp string) string    { return filepath.Join(s.dir, fp+".job.json") }

// jobMeta is the completion metadata persisted next to the result bytes.
type jobMeta struct {
	Fingerprint string `json:"fingerprint"`
	Exit        int    `json:"exit"`
	Faults      int    `json:"faults,omitempty"`
	Replayed    int    `json:"replayed,omitempty"`
}

// writeSpec records the submitted spec before admission — write-ahead, so a
// daemon killed between admission and completion can rebuild the job.
func (s *stateDir) writeSpec(fp string, doc []byte) error {
	return s.atomicWrite(s.specPath(fp), doc)
}

// dropSpec removes the sidecar of a job that was refused admission.
func (s *stateDir) dropSpec(fp string) {
	_ = s.fs.Remove(s.specPath(fp))
}

// writeResult persists a completed job: result bytes first, metadata after,
// both atomic and durable — a crash between the two leaves a result without
// metadata, which loadResult treats as unfinished and the job re-runs.
func (s *stateDir) writeResult(fp string, output []byte, meta jobMeta) error {
	if err := s.atomicWrite(s.resultPath(fp), output); err != nil {
		return err
	}
	doc, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("service: encode job meta: %w", err)
	}
	return s.atomicWrite(s.metaPath(fp), doc)
}

// loadResult returns the cached output and metadata of a completed job, or
// ok=false when the fingerprint has no (complete) persisted result.
func (s *stateDir) loadResult(fp string) (output []byte, meta jobMeta, ok bool) {
	meta, ok = s.loadMeta(fp)
	if !ok {
		return nil, jobMeta{}, false
	}
	output, err := s.fs.ReadFile(s.resultPath(fp))
	if err != nil {
		return nil, jobMeta{}, false
	}
	return output, meta, true
}

// loadMeta reads a job's completion metadata. A meta file that exists but
// does not parse — or names a different fingerprint — is corrupt, not
// absent: it is quarantined so the job re-runs and the damage is visible on
// /v1/healthz.
func (s *stateDir) loadMeta(fp string) (meta jobMeta, ok bool) {
	doc, err := s.fs.ReadFile(s.metaPath(fp))
	if err != nil {
		return jobMeta{}, false
	}
	if err := json.Unmarshal(doc, &meta); err != nil || meta.Fingerprint != fp {
		s.quarantine(s.metaPath(fp))
		return jobMeta{}, false
	}
	return meta, true
}

// completed reports whether a job has valid metadata and a result file,
// the same test loadResult applies, but without reading the result body:
// a start-up scan only needs to know that the job is done.
func (s *stateDir) completed(fp string) bool {
	if _, ok := s.loadMeta(fp); !ok {
		return false
	}
	fi, err := s.fs.Stat(s.resultPath(fp))
	return err == nil && fi.Mode().IsRegular()
}

// unfinished scans for spec sidecars without a completed result — the jobs a
// restarted daemon must resubmit — sorted by fingerprint for a deterministic
// resubmission order.
func (s *stateDir) unfinished() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: scan state dir: %w", err)
	}
	var fps []string
	for _, e := range entries {
		name := e.Name()
		fp, found := strings.CutSuffix(name, ".spec.json")
		if !found {
			continue
		}
		if s.completed(fp) {
			continue
		}
		fps = append(fps, fp)
	}
	return fps, nil
}

// readSpec loads a persisted spec sidecar.
func (s *stateDir) readSpec(fp string) ([]byte, error) {
	return s.fs.ReadFile(s.specPath(fp))
}

// hasJournal reports whether an interrupted job left a checkpoint journal.
func (s *stateDir) hasJournal(fp string) bool {
	_, err := s.fs.Stat(s.journalPath(fp))
	return err == nil
}

// atomicWrite writes via a temp file + rename so readers never observe a
// partial artifact, and makes the result durable against power loss: the
// temp file is fsynced before the rename (otherwise the rename can commit
// a name pointing at unwritten data — the classic torn-result bug) and the
// parent directory is fsynced after it (otherwise the rename itself may
// not survive).
func (s *stateDir) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: write %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return fmt.Errorf("service: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		return fmt.Errorf("service: sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("service: close %s: %w", filepath.Base(path), err)
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: commit %s: %w", filepath.Base(path), err)
	}
	if err := s.fs.SyncDir(iofault.DirOf(path)); err != nil {
		return fmt.Errorf("service: sync dir for %s: %w", filepath.Base(path), err)
	}
	return nil
}
