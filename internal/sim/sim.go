// Package sim provides the discrete-event simulation core used by the
// network simulator (internal/netsim) and indirectly by every attack
// validation experiment. It implements a virtual clock and a priority event
// queue: handlers scheduled at virtual times run in timestamp order, with
// FIFO tie-breaking for events at the same instant so runs are fully
// deterministic.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Handler is a unit of simulated work executed at its scheduled virtual time.
type Handler func(now time.Duration)

// MsgEvent is a typed, closure-free scheduled payload. The hot schedulers
// (the p2p gossip relay foremost) used to capture their message in a
// closure per scheduled delivery — one closure allocation plus one event
// allocation per message. A MsgEvent instead rides inside the event value
// itself and is handed back to its MsgSink at fire time, so the steady
// state allocates nothing per message (DESIGN.md §12). The field meanings
// are the sink's business; the engine only orders and delivers.
type MsgEvent struct {
	Kind    uint8 // sink-defined discriminator
	Attempt uint8 // retry ordinal, for sinks that re-arm themselves
	From    int32 // sink-defined endpoint
	To      int32 // sink-defined endpoint
	Idx     int32 // sink-defined dense index (e.g. an interned hash)
	Key     uint64
	Obj     any // optional payload pointer; kept a pointer so boxing never allocates
}

// MsgSink receives typed events at their scheduled virtual time.
type MsgSink interface {
	HandleMsg(now time.Duration, m MsgEvent)
}

// payload holds the pointer-carrying part of an event — a closure handler,
// or a typed message's optional Obj. Payloads live in a freelist-recycled
// arena and only events that actually carry a pointer occupy a slot; a
// plain typed message (the overwhelming majority on the gossip hot path)
// is fully inlined in its heapNode and never touches the arena.
type payload struct {
	fn  Handler
	obj any
}

// heapNode is one queued event: the (at, seq) ordering key plus the typed
// message fields inlined. It is deliberately pointer-free: sift moves are
// plain 48-byte copies and the GC write barrier never fires during
// reordering (barrier traffic was ~25% of the gossip profile when events
// carried their pointers through the heap). ref points at the arena
// payload, or -1 when there is none.
type heapNode struct {
	at      time.Duration
	seq     uint64 // unique, so (at, seq) is a strict total order
	key     uint64
	from    int32
	to      int32
	idx     int32
	ref     int32
	kind    uint8
	attempt uint8
	sinkID  uint8
	flags   uint8
}

// heapNode flag bits.
const (
	flagFn uint8 = 1 << iota // arena payload holds a Handler
)

// before is the queue order: timestamp, then schedule order. seq is
// unique, so equal elements cannot arise and any correct min-heap —
// including the 4-ary one used here, whose sift-downs touch half the
// levels of a binary heap's — pops the exact same sequence container/heap
// did.
func (hn heapNode) before(other heapNode) bool {
	if hn.at != other.at {
		return hn.at < other.at
	}
	return hn.seq < other.seq
}

// alloc stores a pointer-carrying payload in a recycled arena slot and
// returns the slot index.
func (e *Engine) alloc(p payload) int32 {
	var ref int32
	if n := len(e.free); n > 0 {
		ref = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ref = int32(len(e.arena))
		e.arena = append(e.arena, payload{})
	}
	e.arena[ref] = p
	return ref
}

// The queue is an exact timer wheel: wheelSize buckets of bucketWidth
// virtual time each, covering a rolling window of wheelSize×bucketWidth
// (64s), plus two small 4-ary min-heaps: far for events beyond the window,
// late for events filed into the bucket already draining. A push into a
// future bucket is an O(1) append — no comparisons, no sifting; a bucket
// is sorted by (at, seq) once, when the wheel reaches it, and consumed
// front to back. seq is unique, so (at, seq) is a strict total order: the
// sorted bucket sequence is unique regardless of the sorting algorithm,
// and the wheel pops the exact sequence container/heap did.
//
// The shape is matched to the workload: gossip deliveries cluster within a
// few mean relay delays (seconds) of now and retry timers sit 30s out, so
// in steady state everything lands on the wheel in buckets of a few dozen
// events; only the rare long timers (mining inter-arrivals, fault
// schedules) overflow to the far heap, which stays tiny. The previous
// design — one big 4-ary heap — spent ~40% of the gossip profile sifting
// (DESIGN.md §12).
const (
	bucketWidth = 250 * time.Millisecond
	wheelSize   = 256 // power of two; window = wheelSize * bucketWidth = 64s
	// slabCap is each bucket's initial capacity, carved from one shared
	// slab so a fresh engine pays one allocation, not one per bucket.
	slabCap = 32
)

// push stamps the node's sequence number and files it: appended to its
// wheel bucket when within the window, sifted into the late heap when that
// bucket is the one currently draining, or sifted into the far heap when
// beyond the window. In steady state nothing here allocates; the
// container/heap version cost one *event allocation per schedule plus
// interface dispatch per comparison.
func (e *Engine) push(hn heapNode) {
	if e.buckets[0] == nil {
		slab := make([]heapNode, wheelSize*slabCap)
		for i := range e.buckets {
			e.buckets[i] = slab[i*slabCap : i*slabCap : (i+1)*slabCap]
		}
	}
	hn.seq = e.nextSeq
	e.nextSeq++
	b := int64(hn.at / bucketWidth)
	if b >= e.curBucket+wheelSize {
		// Beyond the window: far heap, refiled as the wheel advances.
		e.far = heapPush(e.far, hn)
		return
	}
	if b <= e.curBucket {
		// The current bucket, or — when peek has walked the cursor ahead of
		// a not-yet-popped now — an already-passed one: either way the event
		// sorts among the draining bucket's unconsumed tail. Keeping that
		// tail sorted would move it per event, quadratic in a burst of
		// short delays; the late heap takes the event in O(log n), and peek
		// and pop merge the two.
		e.late = heapPush(e.late, hn)
		return
	}
	// A future bucket collects unsorted; it is sorted on activation.
	e.wheelCount++
	bucket := &e.buckets[b&(wheelSize-1)]
	*bucket = append(*bucket, hn)
}

// heapPush sifts hn up into the 4-ary min-heap q and returns the grown
// heap.
func heapPush(q []heapNode, hn heapNode) []heapNode {
	q = append(q, hn)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !hn.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = hn
	return q
}

// heapPop removes the minimum of the non-empty 4-ary min-heap q and returns
// it with the shrunk heap.
func heapPop(q []heapNode) (heapNode, []heapNode) {
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for r := c + 1; r < end; r++ {
			if q[r].before(q[c]) {
				c = r
			}
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	return top, q
}

// pending returns the number of events waiting across all three stores.
func (e *Engine) pending() int {
	return e.wheelCount + len(e.far) + len(e.late)
}

// sortBucket sorts a bucket by (at, seq): insertion sort for the typical
// few-dozen-event bucket, quicksort for the occasional burst bucket where
// insertion sort's quadratic cost would bite. The order is unique either
// way — seq makes the key strictly total.
func sortBucket(s []heapNode) {
	// Hand-rolled quicksort with direct (at, seq) comparisons: the generic
	// slices.SortFunc pays an indirect call per comparison, which dominated
	// the gossip profile once everything else on this path was slices and
	// arenas. Keys are strictly totally ordered, so any correct sort —
	// whatever its pivot luck — produces the one sorted order the byte-
	// identity contract needs.
	for len(s) > 24 {
		// Median-of-three pivot; p is a copy of an element of s, which makes
		// both Hoare scans terminate in bounds.
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		if b.before(a) {
			a, b = b, a
		}
		var p heapNode
		switch {
		case c.before(a):
			p = a
		case c.before(b):
			p = c
		default:
			p = b
		}
		i, j := -1, len(s)
		for {
			for {
				i++
				if !s[i].before(p) {
					break
				}
			}
			for {
				j--
				if !p.before(s[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		// Recurse into the smaller side, iterate on the larger.
		if j+1 <= len(s)-(j+1) {
			sortBucket(s[:j+1])
			s = s[j+1:]
		} else {
			sortBucket(s[j+1:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		hn := s[i]
		j := i
		for j > 0 && hn.before(s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = hn
	}
}

// refill moves far-heap events that have entered the wheel window onto the
// wheel. Called whenever curBucket advances.
func (e *Engine) refill() {
	for len(e.far) > 0 && int64(e.far[0].at/bucketWidth) < e.curBucket+wheelSize {
		var hn heapNode
		hn, e.far = heapPop(e.far)
		e.wheelCount++
		b := int64(hn.at / bucketWidth)
		e.buckets[b&(wheelSize-1)] = append(e.buckets[b&(wheelSize-1)], hn)
	}
}

// locate advances the wheel cursor to the first pending event, sorting each
// bucket as it becomes current and refiling far events as they enter the
// window. It advances only once both the draining bucket and the late heap
// are empty. It only performs order-neutral structural maintenance, so it
// is safe to call from peek. Precondition: pending() > 0.
func (e *Engine) locate() {
	for {
		bucket := &e.buckets[e.curBucket&(wheelSize-1)]
		if e.cur < len(*bucket) || len(e.late) > 0 {
			return
		}
		*bucket = (*bucket)[:0]
		e.cur = 0
		if e.wheelCount > 0 {
			e.curBucket++
		} else {
			// Wheel empty: jump straight to the earliest far event.
			e.curBucket = int64(e.far[0].at / bucketWidth)
		}
		e.refill()
		sortBucket(e.buckets[e.curBucket&(wheelSize-1)])
	}
}

// peek returns the earliest pending node in (at, seq) order. Far events are
// all beyond the wheel window and late events all before the next bucket,
// so once locate has settled, the smaller of the current bucket's front
// and the late heap's top is the global minimum.
func (e *Engine) peek() heapNode {
	e.locate()
	if e.lateFirst() {
		return e.late[0]
	}
	return e.buckets[e.curBucket&(wheelSize-1)][e.cur]
}

// lateFirst reports whether the late heap holds the next event: it is
// non-empty, and the draining bucket is consumed or its front comes later.
func (e *Engine) lateFirst() bool {
	if len(e.late) == 0 {
		return false
	}
	bucket := e.buckets[e.curBucket&(wheelSize-1)]
	return e.cur == len(bucket) || e.late[0].before(bucket[e.cur])
}

// pop removes the minimum node and returns it together with its arena
// payload, if any. The arena slot is zeroed (so the queue does not retain
// handler closures or message payloads) and recycled; most typed messages
// carry no pointer and skip the arena entirely.
func (e *Engine) pop() (heapNode, payload) {
	e.locate()
	var top heapNode
	if e.lateFirst() {
		top, e.late = heapPop(e.late)
	} else {
		top = e.buckets[e.curBucket&(wheelSize-1)][e.cur]
		e.cur++
		e.wheelCount--
	}
	var p payload
	if top.ref >= 0 {
		p = e.arena[top.ref]
		e.arena[top.ref] = payload{}
		e.free = append(e.free, top.ref)
	}
	return top, p
}

// dispatch fires one popped event: either the closure handler or the typed
// message, reassembled from the node's inlined fields.
func (e *Engine) dispatch(hn heapNode, p payload) {
	if hn.flags&flagFn != 0 {
		p.fn(e.now)
		return
	}
	e.sinks[hn.sinkID].HandleMsg(e.now, MsgEvent{
		Kind:    hn.kind,
		Attempt: hn.attempt,
		From:    hn.from,
		To:      hn.to,
		Idx:     hn.idx,
		Key:     hn.key,
		Obj:     p.obj,
	})
}

// ErrSchedulePast is returned when a handler is scheduled before the current
// virtual time.
var ErrSchedulePast = errors.New("sim: cannot schedule event in the past")

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use. Engine is not safe for concurrent use; the simulation model
// is deliberately sequential so that a seed fully determines a run.
type Engine struct {
	now time.Duration
	// buckets is the timer wheel (see push); curBucket is the absolute
	// bucket number the wheel is draining, cur the consumed prefix of its
	// bucket, and wheelCount the events currently on the wheel. far and
	// late are the 4-ary min-heaps of events beyond the wheel window and of
	// events filed into the draining or an already-passed bucket.
	buckets    [wheelSize][]heapNode
	far        []heapNode
	late       []heapNode
	curBucket  int64
	cur        int
	wheelCount int
	// arena holds the pointer-carrying payloads, indexed by heapNode.ref;
	// free recycles vacated slots.
	arena []payload
	free  []int32
	// sinks is the registry of MsgSink receivers, indexed by heapNode.sinkID.
	// A simulation registers a handful at most (the p2p network is the only
	// one today), so lookup is a linear scan at schedule time.
	sinks   []MsgSink
	nextSeq uint64
	// processed counts executed events, exposed for tests and for guarding
	// against runaway simulations.
	processed uint64
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
//
//lint:ignore unusedexport used by the perfbench module, which ./... does not load
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at the absolute virtual time at. It returns
// ErrSchedulePast if at precedes the current virtual time.
func (e *Engine) At(at time.Duration, fn Handler) error {
	if fn == nil {
		return errors.New("sim: nil handler")
	}
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	e.push(heapNode{at: at, ref: e.alloc(payload{fn: fn}), flags: flagFn})
	return nil
}

// AtMsg schedules delivery of a typed message to sink at the absolute
// virtual time at. It shares At's sequence counter, so closure events and
// message events interleave in exactly their scheduling order.
func (e *Engine) AtMsg(at time.Duration, sink MsgSink, m MsgEvent) error {
	if sink == nil {
		return errors.New("sim: nil sink")
	}
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	id := -1
	for i, s := range e.sinks {
		if s == sink {
			id = i
			break
		}
	}
	if id < 0 {
		if len(e.sinks) == 256 {
			return errors.New("sim: too many distinct sinks")
		}
		id = len(e.sinks)
		e.sinks = append(e.sinks, sink)
	}
	hn := heapNode{
		at:      at,
		key:     m.Key,
		from:    m.From,
		to:      m.To,
		idx:     m.Idx,
		ref:     -1,
		kind:    m.Kind,
		attempt: m.Attempt,
		sinkID:  uint8(id),
	}
	if m.Obj != nil {
		hn.ref = e.alloc(payload{obj: m.Obj})
	}
	e.push(hn)
	return nil
}

// AfterMsg schedules a typed message delay after the current virtual time,
// clamping negative delays to zero like After.
func (e *Engine) AfterMsg(delay time.Duration, sink MsgSink, m MsgEvent) error {
	if delay < 0 {
		delay = 0
	}
	return e.AtMsg(e.now+delay, sink, m)
}

// After schedules fn to run delay after the current virtual time. Negative
// delays are clamped to zero: an exponential delay sampler can legitimately
// round to a tiny negative number and "now" is the correct interpretation.
func (e *Engine) After(delay time.Duration, fn Handler) error {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// Run executes events in timestamp order until the queue drains or the
// virtual clock passes until. Events scheduled exactly at until still run.
// It returns the number of events processed by this call.
func (e *Engine) Run(until time.Duration) uint64 {
	start := e.processed
	for e.pending() > 0 {
		at := e.peek().at
		if at > until {
			break
		}
		hn, p := e.pop()
		e.now = at
		e.processed++
		e.dispatch(hn, p)
	}
	// Advance the clock to the horizon even if the queue drained early, so
	// repeated Run calls observe monotonic time.
	if e.now < until {
		e.now = until
	}
	return e.processed - start
}
