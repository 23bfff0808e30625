// Package checkpoint is the crash-safety layer of the experiment harness: a
// versioned, checksummed JSONL write-ahead journal (schema ckpt.v1) of
// completed task results, keyed by (study fingerprint, task seed). The
// deterministic runner appends one framed record per finished trial, so a
// run killed at any trial boundary — panic, OOM kill, Ctrl-C — loses at
// most the record being written; resuming replays the journaled results and
// re-runs only the remainder, with final output byte-identical to an
// uninterrupted run at any worker count (DESIGN.md §11).
//
// Every journal line, header included, is one checksum frame, so a
// truncated or bit-flipped journal yields a typed error or a valid prefix,
// never a silent misparse.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// ErrCorrupt marks a frame that failed its checksum or could not be parsed
// — the journal is damaged at that point and only the prefix before it is
// trustworthy.
var ErrCorrupt = errors.New("checkpoint: corrupt frame")

// ErrBudget is the watchdog sentinel: a simulation exceeded its step or
// event budget and was cancelled. Supervised runners classify task errors
// wrapping ErrBudget as "exhausted" rather than "quarantined", and the CLI
// maps them to the budget-exhausted exit code.
var ErrBudget = errors.New("checkpoint: simulation budget exhausted")

// castagnoli is the CRC-32C polynomial table used by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is the wire form of one journal line: the CRC-32C of the payload
// bytes (8 hex digits) and the payload itself, embedded verbatim.
type frame struct {
	Sum string          `json:"sum"`
	P   json.RawMessage `json:"p"`
}

// sumHex renders the CRC-32C of payload as 8 lowercase hex digits.
func sumHex(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli))
}

// encodeFrame wraps a compact JSON payload in a checksum frame, returning
// one complete line including the trailing newline. The payload must be the
// exact output of json.Marshal: the checksum covers its bytes verbatim, and
// decodeFrame recovers exactly those bytes.
func encodeFrame(payload []byte) ([]byte, error) {
	if !json.Valid(payload) {
		return nil, fmt.Errorf("checkpoint: frame payload is not valid JSON")
	}
	line, err := json.Marshal(frame{Sum: sumHex(payload), P: payload})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode frame: %w", err)
	}
	return append(line, '\n'), nil
}

// decodeFrame verifies one frame line (without its newline) and returns the
// payload bytes. Any parse failure or checksum mismatch reports ErrCorrupt.
func decodeFrame(line []byte) ([]byte, error) {
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(f.P) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	if got := sumHex(f.P); got != f.Sum {
		return nil, fmt.Errorf("%w: checksum %s, frame claims %s", ErrCorrupt, got, f.Sum)
	}
	return f.P, nil
}

// Fingerprint hashes the identifying parts of a run (experiment name, seed,
// option values — everything that changes output except the worker count)
// into a stable hex string. A journal records the fingerprint it was
// written under, and resuming under a different one is rejected: replaying
// results into a differently-configured run would silently corrupt it.
func Fingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		// The separator keeps ("ab","c") distinct from ("a","bc").
		_, _ = h.Write([]byte(p)) // fnv.Write never fails
		_, _ = h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StudyFingerprint is the stable fingerprint of a canonicalized study spec:
// the FNV hash of the spec's schema name and its canonical JSON document,
// domain-separated from the positional Fingerprint form above. It is THE
// shared key between the partitiond result cache and the resume journals —
// core.Spec.Fingerprint computes it, Journal headers record it, and the
// service addresses cached results by it, so a cache entry and the journal
// that produced it can never disagree about which run they describe.
func StudyFingerprint(schema string, canonical []byte) string {
	return Fingerprint("study", schema, string(canonical))
}
