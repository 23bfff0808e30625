package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one op share
// an op id; parent is the index of the enclosing span, -1 for an op's root.
type span struct {
	op     int
	name   string
	parent int
	start  time.Duration
	end    time.Duration
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced passes share the traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end (and for children's
// parent); -1 when t is nil.
func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: op, name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begun as i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
}

// timed runs f inside a span.
func (t *tracer) timed(op int, name string, parent int, f func(self int)) {
	i := t.begin(op, name, parent)
	defer t.end(i)
	f(i)
}

// selfTime is span i's duration minus the part of it that its children
// cover; overlapping children (concurrent calls) are counted once.
func selfTime(spans []span, i int) time.Duration {
	s := spans[i]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, c := range spans {
		if c.parent != i || c.end < 0 {
			continue
		}
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
	covered := time.Duration(0)
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		if k.a > curB {
			covered += curB - curA
			curA, curB = k.a, k.b
			continue
		}
		curB = max(curB, k.b)
	}
	covered += curB - curA
	return s.end - s.start - covered
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary folds the recorded spans by name: count, total and self time.
func (t *tracer) summary() map[string]spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanStat{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		st.Count++
		st.TotalMs += ms(s.end - s.start)
		st.SelfMs += ms(selfTime(t.spans, i))
		out[s.name] = st
	}
	return out
}

// durations returns the durations of every closed span with the given name,
// in recording order.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}
