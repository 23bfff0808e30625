package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// SchemaV1 names the first (current) trace schema version. A JSONL export
// begins with a header line carrying this string; decoders reject exports
// with an unknown schema.
const SchemaV1 = "obs.trace.v1"

// DefaultTraceCapacity is the ring-buffer size used when NewTracer is
// given a non-positive capacity.
const DefaultTraceCapacity = 1 << 16

// Field is one key/value pair attached to an event. Values are
// pre-rendered strings so encoding never depends on float formatting
// quirks across Go versions.
type Field struct {
	K string `json:"k"`
	V string `json:"v"`
}

// F builds a string field.
func F(k, v string) Field { return Field{K: k, V: v} }

// Fint builds an integer field.
func Fint(k string, v int64) Field { return Field{K: k, V: strconv.FormatInt(v, 10)} }

// Ffloat builds a float field rendered with %g semantics.
func Ffloat(k string, v float64) Field {
	return Field{K: k, V: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Fbool builds a boolean field.
func Fbool(k string, v bool) Field { return Field{K: k, V: strconv.FormatBool(v)} }

// Event is one traced occurrence. Seq is the tracer-assigned sequence
// number (dense, starting at 0, counting every emitted event including
// ones later evicted from the ring). Tick is the caller-supplied
// simulation time: Engine.Now() in nanoseconds for the event-driven
// simulators, the step counter in gridsim. Scope names the emitting
// subsystem ("p2p", "netsim", "gridsim", "attack"), Type the event kind.
type Event struct {
	Seq    uint64  `json:"seq"`
	Tick   int64   `json:"tick"`
	Scope  string  `json:"scope"`
	Type   string  `json:"type"`
	Fields []Field `json:"fields,omitempty"`
}

// Tracer is a bounded in-memory event log. When the ring fills, the
// oldest events are evicted and counted in Dropped — exports always note
// how many events were lost. All methods are nil-safe.
//
// Dropped-event contract: eviction is strictly oldest-first, and Seq stays
// dense across evictions (it counts every Emit, not every survivor), so a
// consumer can detect a gap by comparing the first surviving Seq against 0
// and Dropped against the export header. Replay-style consumers must
// tolerate truncated prefixes: attack.ReplaySummaries, for example, reads
// only the "summary" events each plan emits at completion, so the most
// recent plans' summaries survive any overflow, while a plan whose summary
// was followed by at least capacity further events is silently absent from
// the replay map — callers distinguish "plan never ran" from "summary
// evicted" via TraceLog.Dropped, never by assuming the map is complete.
type Tracer struct {
	mu       sync.Mutex
	ring     []Event
	capacity int // ring bound; storage grows lazily up to it
	start    int // index of the oldest event
	n        int // events currently held
	seq      uint64
	dropped  uint64
}

// NewTracer returns a tracer holding up to capacity events (<= 0 selects
// DefaultTraceCapacity). Storage grows on demand, so a short run never pays
// for the full capacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity}
}

// Emit records one event at the given simulation tick. A nil tracer is a
// no-op.
func (t *Tracer) Emit(tick int64, scope, typ string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := Event{Seq: t.seq, Tick: tick, Scope: scope, Type: typ, Fields: fields}
	t.seq++
	if t.n < t.capacity {
		if len(t.ring) == cap(t.ring) {
			// Doubling growth clamped to the ring bound: amortized O(1)
			// without ever allocating beyond the configured capacity.
			newCap := 2 * cap(t.ring)
			if newCap == 0 {
				newCap = 64
			}
			if newCap > t.capacity {
				newCap = t.capacity
			}
			grown := make([]Event, len(t.ring), newCap)
			copy(grown, t.ring)
			t.ring = grown
		}
		t.ring = append(t.ring, ev)
		t.n++
		return
	}
	// Ring is full: overwrite the oldest slot.
	t.ring[t.start] = ev
	t.start = (t.start + 1) % len(t.ring)
	t.dropped++
}

// Dropped returns how many events were evicted from the ring (0 for a nil
// tracer).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// EventsSince returns the held events whose sequence number is at least
// seq, oldest-first, plus the cursor to pass next time (one past the newest
// event ever emitted, whether or not it survived the ring). A live consumer
// — the partitiond trace stream — polls this with its advancing cursor and
// receives each event exactly once; events evicted before a poll are simply
// absent, which the dense Seq numbering makes detectable. A nil tracer
// returns (nil, seq).
func (t *Tracer) EventsSince(seq uint64) ([]Event, uint64) {
	if t == nil {
		return nil, seq
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for i := 0; i < t.n; i++ {
		ev := t.ring[(t.start+i)%len(t.ring)]
		if ev.Seq >= seq {
			out = append(out, ev)
		}
	}
	return out, t.seq
}

// Events returns the held events oldest-first. A nil tracer returns nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.start+i)%len(t.ring)])
	}
	return out
}

// StreamEvents marks a JSONL header whose event count is not known up
// front: a live NDJSON stream writes its header before the run finishes, so
// it carries -1 and consumers count events themselves.
const StreamEvents = -1

// traceHeader is the first line of a JSONL export.
type traceHeader struct {
	Schema  string `json:"schema"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// WriteJSONL exports the trace: one header line ({"schema","events",
// "dropped"}) followed by one JSON object per event, oldest first. A nil
// tracer writes a header describing an empty trace.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Schema: SchemaV1, Events: len(events), Dropped: t.Dropped()}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// StreamEncoder writes the obs.trace.v1 framing incrementally: one header
// line up front (with the StreamEvents count, since a live stream cannot
// know its length), then batches of events as they arrive, each batch
// flushed so an NDJSON consumer sees events without buffering delay. It is
// the encoder behind the partitiond /trace endpoint; WriteJSONL remains the
// bounded-export form.
type StreamEncoder struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewStreamEncoder writes the stream header and returns the encoder. The
// header reports StreamEvents (-1) events and zero dropped; eviction
// accounting for live streams is the consumer's job via Seq gaps.
func NewStreamEncoder(w io.Writer) (*StreamEncoder, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Schema: SchemaV1, Events: StreamEvents}); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &StreamEncoder{bw: bw, enc: enc}, nil
}

// Encode appends a batch of events to the stream and flushes it.
func (e *StreamEncoder) Encode(events ...Event) error {
	for _, ev := range events {
		if err := e.enc.Encode(ev); err != nil {
			return err
		}
	}
	return e.bw.Flush()
}

// TraceLog is a decoded JSONL export.
type TraceLog struct {
	Schema  string
	Dropped uint64
	Events  []Event
}

// DecodeJSONL parses a trace previously written by WriteJSONL. It rejects
// unknown schema versions and event counts that disagree with the header.
//
//lint:ignore unusedexport decodes WriteJSONL traces for the replay, stream and daemon tests that ReplaySummaries and the trace format are checked with
func DecodeJSONL(r io.Reader) (*TraceLog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: empty trace: missing header line")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("obs: bad trace header: %w", err)
	}
	if hdr.Schema != SchemaV1 {
		return nil, fmt.Errorf("obs: unknown trace schema %q (want %q)", hdr.Schema, SchemaV1)
	}
	capHint := hdr.Events
	if capHint < 0 {
		capHint = 0
	}
	log := &TraceLog{Schema: hdr.Schema, Dropped: hdr.Dropped, Events: make([]Event, 0, capHint)}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("obs: bad trace event %d: %w", len(log.Events), err)
		}
		log.Events = append(log.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A streaming header (events = -1) never pinned a count; bounded
	// exports must match theirs exactly.
	if hdr.Events >= 0 && len(log.Events) != hdr.Events {
		return nil, fmt.Errorf("obs: trace header claims %d events, found %d", hdr.Events, len(log.Events))
	}
	return log, nil
}
