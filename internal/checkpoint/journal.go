package checkpoint

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/iofault"
)

// SchemaV1 names the first (current) journal schema. The header line of
// every journal carries this string; readers reject unknown schemas.
const SchemaV1 = "ckpt.v1"

// ErrSchema marks a journal whose header names an unknown schema version.
var ErrSchema = errors.New("checkpoint: unknown journal schema")

// ErrFingerprint marks a journal written under a different run fingerprint:
// its results belong to a differently-configured run and must not be
// replayed into this one.
var ErrFingerprint = errors.New("checkpoint: journal fingerprint mismatch")

// Kind classifies a journal record.
type Kind string

const (
	// KindResult is a completed task: Output holds its serialized result.
	KindResult Kind = "result"
	// KindQuarantine is a task that panicked or failed: the sweep continued
	// in degraded mode and the record preserves the evidence (panic value,
	// stack, input fingerprint). Quarantined tasks are re-run on resume.
	KindQuarantine Kind = "quarantine"
	// KindExhausted is a task cancelled by the watchdog: its grid
	// simulation exceeded the configured step budget (ErrBudget). Exhausted
	// tasks are re-run on resume (presumably under a larger budget).
	KindExhausted Kind = "exhausted"
)

// valid reports whether k is a known record kind.
func (k Kind) valid() bool {
	return k == KindResult || k == KindQuarantine || k == KindExhausted
}

// Record is one journal entry: the outcome of one task, keyed by the task
// index and its derived seed.
type Record struct {
	// Kind classifies the outcome.
	Kind Kind `json:"kind"`
	// Task is the task index within the sweep.
	Task int `json:"task"`
	// Seed is the task's derived seed — the replay key together with the
	// journal fingerprint. A resume whose derived seed disagrees re-runs
	// the task rather than replaying a result that no longer matches.
	Seed int64 `json:"seed"`
	// Name optionally labels the task (experiment name, trial label).
	Name string `json:"name,omitempty"`
	// Output is the serialized result of a KindResult record.
	Output []byte `json:"output,omitempty"`
	// Error is the failure message of a quarantined or exhausted task.
	Error string `json:"error,omitempty"`
	// Panic and Stack preserve a quarantined panic's value and goroutine
	// stack.
	Panic string `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Input fingerprints the task's input for quarantine forensics.
	Input string `json:"input,omitempty"`
}

// header is the first framed line of a journal. Spec optionally embeds the
// canonical study-spec document the run was keyed by (partitiond writes it
// so a journal found after a crash is self-describing: the daemon can
// rebuild and resume the job from the journal alone). Journals written
// without a spec stay byte-identical to the pre-spec format.
type header struct {
	Schema      string          `json:"schema"`
	Fingerprint string          `json:"fingerprint"`
	Spec        json.RawMessage `json:"spec,omitempty"`
}

// Journal is an append-only write-ahead journal. Append is safe for
// concurrent use: the worker pool journals each task as it completes, so
// record order follows completion order, not task order — replay is keyed,
// not positional. Every record is flushed to the operating system before
// Append returns, which survives a process crash; power-off durability
// additionally requires the opt-in Sync mode (JournalOptions.Sync), which
// fsyncs after every record.
type Journal struct {
	mu          sync.Mutex
	f           iofault.File
	bw          *bufio.Writer
	fingerprint string
	spec        []byte
	sync        bool
}

// JournalOptions parameterizes CreateJournal and ResumeJournal.
type JournalOptions struct {
	// FS is the filesystem seam the journal runs over; nil means the real
	// filesystem (iofault.OS).
	FS iofault.FS
	// Sync fsyncs the journal after the header and after every appended
	// record, upgrading the durability guarantee from "survives a process
	// crash" to "survives power loss". partitiond enables it; the CLI's
	// default stays flush-only.
	Sync bool
	// Spec optionally embeds the canonical study-spec document in the
	// header, making the journal self-describing (see header). Nil writes
	// the plain header, byte-identical to the pre-spec format.
	Spec []byte
}

// CreateJournal opens a fresh journal at path (truncating any existing
// file) over the configured filesystem and writes — and, in Sync mode,
// fsyncs — the ckpt.v1 header for the given run fingerprint.
func CreateJournal(path, fingerprint string, opts JournalOptions) (*Journal, error) {
	fsys := iofault.OrOS(opts.FS)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: create journal: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), fingerprint: fingerprint, spec: opts.Spec, sync: opts.Sync}
	if err := j.writeHeader(); err != nil {
		_ = f.Close() // the header error is the one worth reporting
		return nil, err
	}
	return j, nil
}

// ResumeJournal opens an existing journal over the configured filesystem
// for resumption: it replays the valid record prefix, truncates any corrupt
// tail (the half-written line of the interrupted run), and returns the
// journal positioned for appending plus the replay log. A fingerprint
// mismatch or unknown schema is a hard error — the journal belongs to a
// different run. Records appended after resumption get the same Sync
// upgrade as CreateJournal's.
func ResumeJournal(path, fingerprint string, opts JournalOptions) (*Journal, *Log, error) {
	fsys := iofault.OrOS(opts.FS)
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	log, validLen, err := parse(data, fingerprint)
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		_ = f.Close() // the truncate error is the one worth reporting
		return nil, nil, fmt.Errorf("checkpoint: drop corrupt tail: %w", err)
	}
	if _, err := f.Seek(int64(validLen), io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one worth reporting
		return nil, nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), fingerprint: fingerprint, sync: opts.Sync}
	return j, log, nil
}

// writeHeader frames and flushes the schema/fingerprint line.
func (j *Journal) writeHeader() error {
	payload, err := json.Marshal(header{Schema: SchemaV1, Fingerprint: j.fingerprint, Spec: j.spec})
	if err != nil {
		return fmt.Errorf("checkpoint: encode header: %w", err)
	}
	line, err := encodeFrame(payload)
	if err != nil {
		return err
	}
	if _, err := j.bw.Write(line); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush header: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: sync header: %w", err)
		}
	}
	return nil
}

// Append journals one record and flushes it — the write-ahead step at every
// trial boundary. A nil journal is a no-op, so un-checkpointed runs pay
// nothing. The flush hands the record to the operating system, which
// survives a process crash (losing at most the line being written, which
// the reader's valid-prefix recovery drops); surviving power loss requires
// Sync mode, where Append also fsyncs before returning. Journal I/O errors
// are never droppable: the caller must abort the sweep, because a silently
// failing journal would replay an incomplete prefix as if it were the
// whole run.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	if !rec.Kind.valid() {
		return fmt.Errorf("checkpoint: unknown record kind %q", rec.Kind)
	}
	if rec.Task < 0 {
		return fmt.Errorf("checkpoint: negative task index %d", rec.Task)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: encode record: %w", err)
	}
	line, err := encodeFrame(payload)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil && j.bw == nil {
		return errors.New("checkpoint: append to closed journal")
	}
	if _, err := j.bw.Write(line); err != nil {
		return fmt.Errorf("checkpoint: write record: %w", err)
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush record: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: sync record: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the journal. A nil journal is a no-op.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.bw.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f, j.bw = nil, nil
	return err
}
