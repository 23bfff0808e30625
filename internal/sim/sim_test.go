package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	var e Engine
	var got []time.Duration
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		d := d
		if err := e.At(d, func(now time.Duration) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(10 * time.Second)
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.At(time.Second, func(time.Duration) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(time.Second)
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-time events ran out of order: %v", got)
	}
	if len(got) != 10 {
		t.Errorf("ran %d events, want 10", len(got))
	}
}

func TestEngineRunHorizon(t *testing.T) {
	var e Engine
	ran := 0
	_ = e.At(time.Second, func(time.Duration) { ran++ })
	_ = e.At(5*time.Second, func(time.Duration) { ran++ })
	n := e.Run(2 * time.Second)
	if n != 1 || ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
	if e.pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.pending())
	}
	// Second run picks up the remaining event.
	e.Run(10 * time.Second)
	if ran != 2 {
		t.Errorf("ran = %d after second run, want 2", ran)
	}
}

func TestEngineEventAtHorizonRuns(t *testing.T) {
	var e Engine
	ran := false
	_ = e.At(2*time.Second, func(time.Duration) { ran = true })
	e.Run(2 * time.Second)
	if !ran {
		t.Error("event scheduled exactly at the horizon did not run")
	}
}

func TestEngineSchedulePast(t *testing.T) {
	var e Engine
	_ = e.At(5*time.Second, func(time.Duration) {})
	e.Run(5 * time.Second)
	err := e.At(time.Second, func(time.Duration) {})
	if !errors.Is(err, ErrSchedulePast) {
		t.Errorf("err = %v, want ErrSchedulePast", err)
	}
}

func TestEngineNilHandler(t *testing.T) {
	var e Engine
	if err := e.At(time.Second, nil); err == nil {
		t.Error("nil handler: want error")
	}
}

func TestEngineAfterNegativeDelayClamps(t *testing.T) {
	var e Engine
	ran := false
	if err := e.After(-time.Second, func(time.Duration) { ran = true }); err != nil {
		t.Fatal(err)
	}
	e.Run(time.Second)
	if !ran {
		t.Error("negative-delay event did not run")
	}
}

func TestEngineCascade(t *testing.T) {
	// A handler that reschedules itself should keep running until the horizon.
	var e Engine
	count := 0
	var tick Handler
	tick = func(now time.Duration) {
		count++
		_ = e.After(time.Second, tick)
	}
	_ = e.After(time.Second, tick)
	e.Run(10 * time.Second)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
}

func TestEngineClockMonotoneProperty(t *testing.T) {
	// Property: for any batch of scheduling offsets, handlers observe a
	// non-decreasing clock.
	f := func(offsets []uint16) bool {
		var e Engine
		last := time.Duration(-1)
		ok := true
		for _, off := range offsets {
			d := time.Duration(off) * time.Millisecond
			if err := e.At(d, func(now time.Duration) {
				if now < last {
					ok = false
				}
				last = now
			}); err != nil {
				return false
			}
		}
		e.Run(time.Duration(1<<16) * time.Millisecond)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// orderSink records typed events by their Key, the test's schedule id.
type orderSink struct{ fire func(id uint64) }

func (s *orderSink) HandleMsg(_ time.Duration, m MsgEvent) { s.fire(m.Key) }

// TestEngineMatchesReferenceOrder checks the queue against its definition:
// every event fires, and in the order of a plain sort by (at, seq). Each
// seeded run mixes closure and typed events and their follow-ups: zero
// delays, sub-250ms bursts into the bucket already draining, delays across
// the wheel and beyond its 64s window. It also stops Run early at random
// horizons and then schedules with At into buckets the cursor has already
// passed.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var e Engine
		var ats []time.Duration // schedule id -> virtual time; ids follow seq
		var fired []uint64
		sink := &orderSink{}
		var schedule func(at time.Duration)
		onFire := func(id uint64) {
			if e.Now() != ats[id] {
				t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, id, e.Now(), ats[id])
			}
			fired = append(fired, id)
			if len(ats) >= 4000 {
				return
			}
			for k := r.Intn(4); k > 0; k-- {
				var d time.Duration
				switch r.Intn(6) {
				case 0:
					d = 0
				case 1, 2:
					d = time.Duration(r.Intn(250)) * time.Millisecond
				case 3:
					d = time.Duration(r.Intn(3000)) * time.Millisecond
				case 4:
					d = time.Duration(r.Intn(70)) * time.Second
				default:
					d = time.Duration(r.Intn(200)) * time.Second
				}
				schedule(e.Now() + d)
			}
		}
		sink.fire = onFire
		schedule = func(at time.Duration) {
			id := uint64(len(ats))
			ats = append(ats, at)
			var err error
			if r.Intn(2) == 0 {
				err = e.At(at, func(time.Duration) { onFire(id) })
			} else {
				err = e.AtMsg(at, sink, MsgEvent{Key: id})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			schedule(time.Duration(r.Intn(5000)) * time.Millisecond)
		}
		for horizon := time.Duration(0); e.pending() > 0 && horizon < time.Hour; {
			horizon += time.Duration(r.Intn(3000)) * time.Millisecond
			e.Run(horizon)
			for k := r.Intn(3); k > 0; k-- {
				schedule(e.Now() + time.Duration(r.Intn(500))*time.Millisecond)
			}
		}
		e.Run(24 * time.Hour)
		want := make([]uint64, len(ats))
		for i := range want {
			want[i] = uint64(i)
		}
		sort.SliceStable(want, func(i, j int) bool { return ats[want[i]] < ats[want[j]] })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d of %d events fired", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: event %d fired %d-th, reference order has %d there", seed, fired[i], i, want[i])
			}
		}
	}
}

// BenchmarkEngineBurst schedules 20,000 events at distinct instants inside
// one 250ms bucket while that bucket is draining, then runs them: every
// push lands in the draining bucket, the case a sorted insert made
// quadratic.
func BenchmarkEngineBurst(b *testing.B) {
	const burst = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		if err := e.At(0, func(now time.Duration) {
			for k := burst; k > 0; k-- {
				if err := e.At(now+time.Duration(k)*time.Microsecond, func(time.Duration) {}); err != nil {
					b.Fatal(err)
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
		if n := e.Run(time.Second); n != burst+1 {
			b.Fatalf("ran %d events, want %d", n, burst+1)
		}
	}
}
