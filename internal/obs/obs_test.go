package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// isEmpty reports whether the snapshot carries no series at all.
func isEmpty(s Snapshot) bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	var r *Registry
	var tr *Tracer
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil observer must hand out nil handles")
	}
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{1, 2}).Observe(3)
	r.Merge(NewRegistry())
	if !isEmpty(r.Snapshot()) {
		t.Fatal("nil registry must snapshot empty")
	}
	tr.Emit(0, "x", "y")
	if len(tr.Events()) != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(3)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestKeyForSortsLabels(t *testing.T) {
	a := keyFor("msgs", []Label{L("dir", "out"), L("as", "24940")})
	b := keyFor("msgs", []Label{L("as", "24940"), L("dir", "out")})
	if a != b {
		t.Fatalf("label order must not matter: %q vs %q", a, b)
	}
	if want := "msgs{as=24940,dir=out}"; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := keyFor("plain", nil); got != "plain" {
		t.Fatalf("bare name must encode as itself, got %q", got)
	}
	// Merge depends on the encoding being a fixed point.
	if got := keyFor(a, nil); got != a {
		t.Fatalf("keyFor(%q) = %q, want fixed point", a, got)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(3)
	r.Counter("a").Inc()
	r.Counter("m", L("k", "v")).Add(2)
	r.Gauge("g2").Set(2)
	r.Gauge("g1").Set(1)
	r.Histogram("h", []float64{2, 1}).Observe(1.5) // bounds sorted at registration
	r.Histogram("h", nil).Observe(10)              // same series; first bounds win

	s := r.Snapshot()
	var names []string
	for _, p := range s.Counters {
		names = append(names, p.Name)
	}
	if want := []string{"a", "m{k=v}", "z"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("counter order = %v, want %v", names, want)
	}
	if s.Gauges[0].Name != "g1" || s.Gauges[1].Name != "g2" {
		t.Fatalf("gauge order = %v", s.Gauges)
	}
	h := s.Histograms[0]
	if !reflect.DeepEqual(h.Bounds, []float64{1, 2}) {
		t.Fatalf("bounds = %v, want sorted [1 2]", h.Bounds)
	}
	if !reflect.DeepEqual(h.Counts, []uint64{0, 1, 1}) {
		t.Fatalf("counts = %v, want [0 1 1]", h.Counts)
	}
	if h.Count != 2 || h.Sum != 11.5 {
		t.Fatalf("count=%d sum=%g, want 2/11.5", h.Count, h.Sum)
	}
	if isEmpty(s) {
		t.Fatal("snapshot should not be empty")
	}
}

func TestRegistryMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(2)
	a.Gauge("g").Set(1)
	a.Histogram("h", []float64{1}).Observe(0.5)

	b := NewRegistry()
	b.Counter("c").Add(3)
	b.Counter("only-b", L("x", "1")).Inc()
	b.Gauge("g").Set(9)
	b.Histogram("h", []float64{1}).Observe(2)

	a.Merge(b)
	s := a.Snapshot()
	if got := s.Counters[0]; got.Name != "c" || got.Value != 5 {
		t.Fatalf("merged counter = %+v, want c=5", got)
	}
	if got := s.Counters[1]; got.Name != "only-b{x=1}" || got.Value != 1 {
		t.Fatalf("merged counter = %+v, want only-b{x=1}=1", got)
	}
	if s.Gauges[0].Value != 9 {
		t.Fatalf("merged gauge = %g, want last-write 9", s.Gauges[0].Value)
	}
	h := s.Histograms[0]
	if h.Count != 2 || h.Sum != 2.5 || !reflect.DeepEqual(h.Counts, []uint64{1, 1}) {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestSnapshotRenderDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("p2p.msgs", L("kind", "inv")).Add(7)
		r.Gauge("netsim.synced_frac").Set(0.75)
		r.Histogram("lag", []float64{1, 2, 5}).Observe(3)
		return r.Snapshot()
	}
	s1, s2 := build().Render(), build().Render()
	if s1 != s2 {
		t.Fatalf("renders differ:\n%s\nvs\n%s", s1, s2)
	}
	for _, want := range []string{
		"counter p2p.msgs{kind=inv} 7\n",
		"gauge netsim.synced_frac 0.75\n",
		"histogram lag count=1 sum=3 buckets=le1:0,le2:0,le5:1,inf:0\n",
	} {
		if !strings.Contains(s1, want) {
			t.Fatalf("render missing %q:\n%s", want, s1)
		}
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(int64(i*10), "test", "tick", Fint("i", int64(i)))
	}
	if n := len(tr.Events()); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		wantSeq := uint64(i + 2)
		if ev.Seq != wantSeq || ev.Tick != int64(wantSeq)*10 {
			t.Fatalf("event %d = %+v, want seq %d tick %d", i, ev, wantSeq, wantSeq*10)
		}
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(0, "netsim", "block_mined", Fint("height", 1), F("miner", "AS24940"))
	tr.Emit(600_000_000_000, "p2p", "reorg", Fint("depth", 2), Ffloat("share", 0.3), Fbool("counterfeit", true))
	tr.Emit(1200_000_000_000, "attack", "victims_captured", Fint("n", 18))

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')]
	if !bytes.Contains(first, []byte(SchemaV1)) {
		t.Fatalf("header %s missing schema %q", first, SchemaV1)
	}

	log, err := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Schema != SchemaV1 || log.Dropped != 0 {
		t.Fatalf("decoded header = %+v", log)
	}
	if !reflect.DeepEqual(log.Events, tr.Events()) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", log.Events, tr.Events())
	}

	// Two identical emission sequences encode byte-identically.
	tr2 := NewTracer(16)
	tr2.Emit(0, "netsim", "block_mined", Fint("height", 1), F("miner", "AS24940"))
	tr2.Emit(600_000_000_000, "p2p", "reorg", Fint("depth", 2), Ffloat("share", 0.3), Fbool("counterfeit", true))
	tr2.Emit(1200_000_000_000, "attack", "victims_captured", Fint("n", 18))
	var buf2 bytes.Buffer
	if err := tr2.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("same emission sequence must export byte-identical JSONL")
	}
}

func TestDecodeJSONLRejectsBadInput(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader("")); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{"schema":"obs.trace.v9","events":0,"dropped":0}` + "\n")); err == nil {
		t.Fatal("unknown schema must fail")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{"schema":"obs.trace.v1","events":2,"dropped":0}` + "\n")); err == nil {
		t.Fatal("event-count mismatch must fail")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{"schema":"obs.trace.v1","events":1,"dropped":0}` + "\nnot-json\n")); err == nil {
		t.Fatal("malformed event must fail")
	}
}

func TestObserverConstructors(t *testing.T) {
	o := New(8)
	if o.Registry() == nil || o.Tracer() == nil {
		t.Fatal("New must wire both halves")
	}
	mo := NewMetricsOnly()
	if mo.Registry() == nil || mo.Tracer() != nil {
		t.Fatal("NewMetricsOnly must omit the tracer")
	}
	d := New(0)
	d.Trace.Emit(0, "x", "y")
	if len(d.Trace.Events()) != 1 {
		t.Fatal("default-capacity tracer must accept events")
	}
}
