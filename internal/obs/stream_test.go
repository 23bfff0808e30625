package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestEventsSinceCursor: a polling consumer sees each event exactly once.
func TestEventsSinceCursor(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(1, "scope", "a")
	tr.Emit(2, "scope", "b")
	events, cursor := tr.EventsSince(0)
	if len(events) != 2 || events[0].Seq != 0 || events[1].Seq != 1 {
		t.Fatalf("first poll: %+v", events)
	}
	if cursor != 2 {
		t.Fatalf("cursor = %d, want 2", cursor)
	}
	// Nothing new: empty poll, cursor unchanged.
	events, cursor = tr.EventsSince(cursor)
	if len(events) != 0 || cursor != 2 {
		t.Fatalf("idle poll: %d events, cursor %d", len(events), cursor)
	}
	tr.Emit(3, "scope", "c")
	events, cursor = tr.EventsSince(cursor)
	if len(events) != 1 || events[0].Type != "c" || cursor != 3 {
		t.Fatalf("second poll: %+v cursor %d", events, cursor)
	}
}

// TestEventsSinceEviction: events evicted before a poll are absent but the
// cursor still counts them — the Seq gap is the consumer's dropped signal.
func TestEventsSinceEviction(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Emit(int64(i), "scope", "e")
	}
	events, cursor := tr.EventsSince(0)
	if len(events) != 2 || events[0].Seq != 3 || cursor != 5 {
		t.Fatalf("events %+v cursor %d", events, cursor)
	}
}

// TestEventsSinceNil: nil tracer polls are inert.
func TestEventsSinceNil(t *testing.T) {
	var tr *Tracer
	events, cursor := tr.EventsSince(7)
	if events != nil || cursor != 7 {
		t.Fatalf("nil tracer poll: %+v, %d", events, cursor)
	}
}

// TestStreamEncoderFraming: a streamed trace decodes under the same
// obs.trace.v1 reader as a bounded export, with the -1 header count.
func TestStreamEncoderFraming(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewStreamEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The header is flushed before any event arrives.
	header := buf.String()
	if !strings.Contains(header, `"schema":"obs.trace.v1"`) || !strings.Contains(header, `"events":-1`) {
		t.Fatalf("stream header %q", header)
	}
	if err := enc.Encode(Event{Seq: 0, Tick: 1, Scope: "s", Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(
		Event{Seq: 1, Tick: 2, Scope: "s", Type: "y", Fields: []Field{F("k", "v")}},
		Event{Seq: 2, Tick: 3, Scope: "s", Type: "z"},
	); err != nil {
		t.Fatal(err)
	}
	log, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 3 || log.Events[1].Fields[0].V != "v" {
		t.Fatalf("decoded %+v", log.Events)
	}
}

// TestDecodeJSONLStillPinsBoundedCounts: the stream tolerance must not
// loosen the bounded-export contract.
func TestDecodeJSONLStillPinsBoundedCounts(t *testing.T) {
	input := `{"schema":"obs.trace.v1","events":2,"dropped":0}` + "\n" +
		`{"seq":0,"tick":1,"scope":"s","type":"x"}` + "\n"
	if _, err := DecodeJSONL(strings.NewReader(input)); err == nil {
		t.Fatal("bounded header count mismatch accepted")
	}
}
