package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

func TestOpListsAreSeeded(t *testing.T) {
	if a, b := sweepSeeds(7, 15), sweepSeeds(7, 15); !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep op list differs for the same seed: %v vs %v", a, b)
	}
	if a, b := sweepSeeds(7, 15), sweepSeeds(8, 15); reflect.DeepEqual(a, b) {
		t.Fatalf("sweep op list is the same for seeds 7 and 8: %v", a)
	}
	seen := map[int64]bool{}
	for _, s := range sweepSeeds(7, 15) {
		if seen[s] {
			t.Fatalf("sweep reuses study seed %d", s)
		}
		seen[s] = true
	}
	for _, s := range sweepWarmupSeeds(7, sweepSeeds(7, 15)) {
		if seen[s] {
			t.Fatalf("set-up seed %d is also an op seed", s)
		}
	}

	a, b := buildCatalog(3, 4), buildCatalog(3, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("daemon catalog differs for the same seed")
	}
	if c := buildCatalog(4, 4); reflect.DeepEqual(a.ops, c.ops) || reflect.DeepEqual(a.specs, c.specs) {
		t.Fatal("daemon catalog is the same for seeds 3 and 4")
	}
	if reflect.DeepEqual(scaleOps(3), scaleOps(4)) {
		t.Fatal("scale ops are the same for seeds 3 and 4")
	}
}

func TestSpatialLocksAreShared(t *testing.T) {
	c := buildCatalog(5, 10)
	locks := spatialLocks(c)
	spatial := core.Command{Verb: "attack", Name: "spatial"}
	n := 0
	for i, a := range c.specs {
		if (locks[i] != nil) != (a.Run == spatial) {
			t.Fatalf("spec %d (%s) has lock %v", i, a.Run, locks[i] != nil)
		}
		if locks[i] == nil {
			continue
		}
		n++
		for j, b := range c.specs {
			if locks[j] != nil && (locks[i] == locks[j]) != (a.Seed == b.Seed) {
				t.Fatalf("specs %d (seed %d) and %d (seed %d): shared lock %v", i, a.Seed, j, b.Seed, locks[i] == locks[j])
			}
		}
	}
	if n <= len(c.seeds) {
		t.Fatalf("%d attack spatial specs over %d seeds: no seed has two", n, len(c.seeds))
	}
}

func TestCatalogSpecsAreDistinct(t *testing.T) {
	c := buildCatalog(5, 10)
	seen := map[string]bool{}
	for _, s := range c.specs {
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if seen[fp] {
			t.Fatalf("two catalog specs share fingerprint %s (%s)", fp, s.Run)
		}
		seen[fp] = true
	}
	used := map[int]bool{}
	for _, op := range c.ops {
		if op.kind != opHit && used[op.spec] {
			t.Fatalf("spec %d is submitted as fresh or cached twice", op.spec)
		}
		used[op.spec] = true
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.50, false},
		{20, 0.50, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{10, 0.01, false},
		{11, 0.01, true},
		{0, 0.50, false},
	} {
		if got := quotable(tc.n, tc.p); got != tc.want {
			t.Errorf("quotable(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	samples := make([]float64, 20)
	for i := range samples {
		samples[i] = float64(20 - i) // 20..1, unsorted
	}
	if v, ok := percentile(samples, 0.50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v (quotable %v), want 10 and quotable", v, ok)
	}
	if _, ok := percentile(samples, 0.99); ok {
		t.Fatal("p99 of 20 samples must not be quotable")
	}
	if s := summarize(samples); s.N != 20 || s.P50Ms == nil || s.P99Ms != nil {
		t.Fatalf("summarize = %+v", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{op: 1, name: "op", parent: -1, start: d(0), end: d(100)},
		{op: 1, name: "a", parent: 0, start: d(10), end: d(30)},
		// b and c overlap: their union, 40..70, is covered once.
		{op: 1, name: "b", parent: 0, start: d(40), end: d(60)},
		{op: 1, name: "c", parent: 0, start: d(50), end: d(70)},
		// d sticks out of its parent; only the part inside counts.
		{op: 1, name: "d", parent: 0, start: d(90), end: d(120)},
		// a grandchild counts against its parent, not the root.
		{op: 1, name: "e", parent: 1, start: d(15), end: d(20)},
	}
	for i, want := range []time.Duration{d(100 - 20 - 30 - 10), d(20 - 5), d(20), d(20), d(30), d(5)} {
		if got := selfTime(spans, i); got != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want)
		}
	}

	tr := newTracer()
	tr.spans = spans
	sum := tr.summary()
	if st := sum["op"]; st.Count != 1 || st.TotalMs != 100 || st.SelfMs != 40 {
		t.Fatalf("summary of op = %+v", st)
	}
	var nilTracer *tracer
	if i := nilTracer.begin(1, "x", -1); i != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", i)
	}
	nilTracer.end(-1)
}

func TestSweepShape(t *testing.T) {
	golden := []byte("Table I: x\n1 2\n\nFigure 1: y\na\n\n")
	if !checkSweepOutput(golden, 1, string(golden)) {
		t.Fatal("golden does not match itself")
	}
	if checkSweepOutput(golden, 1, "Table I: x\n1 3\n\nFigure 1: y\na\n\n") {
		t.Fatal("seed 1 must match the golden byte for byte")
	}
	if !checkSweepOutput(golden, 2, "Table I: x\n9 9\n\nFigure 1: y\nb\n\n") {
		t.Fatal("another seed with the same shape must pass")
	}
	if checkSweepOutput(golden, 2, "Table I: x\n9 9\n\nFigure 2: y\nb\n\n") {
		t.Fatal("a changed title must fail")
	}
}
