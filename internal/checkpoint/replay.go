package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/iofault"
)

// Log is the replayable content of a journal: the valid record prefix of
// the file, with a keyed index for resume lookups.
type Log struct {
	// Fingerprint is the run fingerprint the journal was written under.
	Fingerprint string
	// Spec is the canonical study-spec document embedded in the header by
	// CreateWithSpec, nil for journals written without one.
	Spec []byte
	// Records is the valid record prefix, in file (completion) order.
	Records []Record
	// Truncated reports that the file ended in a corrupt or half-written
	// tail, which was discarded. This is the expected state after a crash
	// mid-append, not an error.
	Truncated bool

	// results indexes the last KindResult record per task.
	results map[int]Record
}

// Result looks up the replayable output of a task: the journaled result
// whose task index and derived seed both match. A quarantined or exhausted
// record never replays — those tasks re-run on resume.
func (l *Log) Result(task int, seed int64) ([]byte, bool) {
	if l == nil {
		return nil, false
	}
	rec, ok := l.results[task]
	if !ok || rec.Seed != seed {
		return nil, false
	}
	return rec.Output, true
}

// Results returns how many distinct tasks have a replayable result.
//
//lint:ignore unusedexport the replayable-result count the resume and crash tests assert against
func (l *Log) Results() int {
	if l == nil {
		return 0
	}
	return len(l.results)
}

// LoadJournal reads and replays the journal at path over the configured
// filesystem (JournalOptions.Sync is irrelevant for reading). See parse.
//
//lint:ignore unusedexport the journal reader the resume, crash and chaos tests inspect journals with
func LoadJournal(path, fingerprint string, opts JournalOptions) (*Log, error) {
	data, err := iofault.OrOS(opts.FS).ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load journal: %w", err)
	}
	log, _, err := parse(data, fingerprint)
	return log, err
}

// parse replays the valid prefix of a journal image and returns the byte
// length of that prefix (where an appender may safely continue writing).
//
// A record only counts when its line is complete (newline-terminated),
// frames correctly, checksums, and carries a valid kind and task index —
// anything else marks the start of the corrupt tail and parsing stops, so
// arbitrary truncation or bit flips yield a typed error or a valid prefix,
// never a panic or silent misparse.
func parse(data []byte, fingerprint string) (*Log, int, error) {
	line, rest, complete := nextLine(data)
	if !complete {
		return nil, 0, fmt.Errorf("checkpoint: missing journal header: %w", ErrCorrupt)
	}
	payload, err := DecodeFrame(line)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: journal header: %w", err)
	}
	var hdr header
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: journal header: %w: %v", ErrCorrupt, err)
	}
	if hdr.Schema != SchemaV1 {
		return nil, 0, fmt.Errorf("%w %q (want %q)", ErrSchema, hdr.Schema, SchemaV1)
	}
	if fingerprint != "" && hdr.Fingerprint != fingerprint {
		return nil, 0, fmt.Errorf("%w: journal has %q, run has %q", ErrFingerprint, hdr.Fingerprint, fingerprint)
	}
	log := &Log{Fingerprint: hdr.Fingerprint, Spec: hdr.Spec, results: map[int]Record{}}
	validLen := len(data) - len(rest)
	data = rest
	for len(data) > 0 {
		line, rest, complete := nextLine(data)
		if !complete {
			log.Truncated = true
			break
		}
		rec, err := decodeRecord(line)
		if err != nil {
			log.Truncated = true
			break
		}
		log.Records = append(log.Records, rec)
		if rec.Kind == KindResult {
			log.results[rec.Task] = rec
		} else {
			// A later quarantine/exhaustion supersedes an earlier result
			// for the same task (it should not happen, but trusting the
			// newest record is the conservative reading).
			delete(log.results, rec.Task)
		}
		validLen = len(data) - len(rest) + validLen
		data = rest
	}
	return log, validLen, nil
}

// decodeRecord parses and validates one framed record line.
func decodeRecord(line []byte) (Record, error) {
	payload, err := DecodeFrame(line)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if !rec.Kind.valid() {
		return Record{}, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, rec.Kind)
	}
	if rec.Task < 0 {
		return Record{}, fmt.Errorf("%w: negative task index %d", ErrCorrupt, rec.Task)
	}
	return rec, nil
}

// nextLine splits data at the first newline. complete is false when no
// newline remains — a half-written final line that a crash mid-append
// leaves behind, which must not count as a record even if it would parse.
func nextLine(data []byte) (line, rest []byte, complete bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return data, nil, false
	}
	return data[:i], data[i+1:], true
}
