package sim

import (
	"errors"
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
