package faults

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/parallel"
)

func TestZeroScenarioInjectsNothing(t *testing.T) {
	var s Scenario
	if s.Enabled() {
		t.Error("zero Scenario reports Enabled")
	}
	if s.Churn.Enabled() || s.Links.Enabled() || s.Chaos.Enabled() {
		t.Error("zero specs report Enabled")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("zero Scenario fails Validate: %v", err)
	}
	if got := s.String(); got != "none" {
		t.Errorf("zero Scenario String() = %q, want \"none\"", got)
	}
	// An injector for the zero scenario must pass everything untouched.
	inj, err := NewInjector(s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v := inj.Intercept(0, 1, time.Duration(i)*time.Second); v.Drop || v.Duplicate || v.ExtraDelay != 0 {
			t.Fatalf("zero-scenario Intercept returned a non-empty verdict: %+v", v)
		}
	}
}

func TestPresetRegistry(t *testing.T) {
	names := PresetNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("PresetNames not sorted: %v", names)
	}
	want := []string{"churny", "flaky", "hijack-recovery", "stable"}
	if len(names) != len(want) {
		t.Fatalf("PresetNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("PresetNames = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		sc, err := Preset(n)
		if err != nil {
			t.Fatalf("Preset(%q): %v", n, err)
		}
		if sc.Name != n {
			t.Errorf("Preset(%q).Name = %q", n, sc.Name)
		}
		if err := sc.withDefaults().Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", n, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("Preset(\"nope\") did not error")
	} else if !strings.Contains(err.Error(), "churny") {
		t.Errorf("unknown-preset error should list the registry, got: %v", err)
	}
	if Stable().Enabled() {
		t.Error("stable preset injects faults")
	}
	for _, sc := range []Scenario{Churny(), Flaky(), HijackRecovery()} {
		if !sc.Enabled() {
			t.Errorf("preset %q injects nothing", sc.Name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"churn fraction > 1", Scenario{Churn: ChurnSpec{Fraction: 1.5, MeanUptime: time.Hour, MeanDowntime: time.Minute}}},
		{"negative drop fraction", Scenario{Links: LinkSpec{DropFraction: -0.1}}},
		{"loss prob > 1", Scenario{Chaos: ChaosSpec{LossProb: 2}}},
		{"negative uptime", Scenario{Churn: ChurnSpec{Fraction: 0.1, MeanUptime: -time.Hour, MeanDowntime: time.Minute}}},
		{"churn without holding times", Scenario{Churn: ChurnSpec{Fraction: 0.1}}},
		{"negative flap period", Scenario{Links: LinkSpec{FlapFraction: 0.1, FlapPeriod: -time.Minute}}},
		{"flap duty > 1", Scenario{Links: LinkSpec{FlapFraction: 0.1, FlapPeriod: time.Minute, FlapDuty: 1.5}}},
		{"negative extra delay", Scenario{Chaos: ChaosSpec{DelayProb: 0.1, MeanExtraDelay: -time.Second}}},
	} {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.sc)
		}
	}
	if _, err := NewInjector(Scenario{Chaos: ChaosSpec{LossProb: 2}}, 1, nil); err == nil {
		t.Error("NewInjector accepted an invalid scenario")
	}
	if _, err := NewGridInjector(Scenario{Chaos: ChaosSpec{LossProb: 2}}, 1, 9, time.Second, -1, nil); err == nil {
		t.Error("NewGridInjector accepted an invalid scenario")
	}
}

// TestLinkTablePure pins the core determinism property: the link table is a
// pure function of (seed, endpoints, now). The answer must not depend on
// query order or on how often a link has been consulted.
func TestLinkTablePure(t *testing.T) {
	l := LinkSpec{DropFraction: 0.2, OneWayFraction: 0.2, FlapFraction: 0.3,
		FlapPeriod: 10 * time.Minute, FlapDuty: 0.5}
	const seed = 0xDEADBEEF
	type key struct {
		from, to int
		now      time.Duration
	}
	first := map[key]bool{}
	for from := 0; from < 20; from++ {
		for to := 0; to < 20; to++ {
			if from == to {
				continue
			}
			for _, now := range []time.Duration{0, 3 * time.Minute, 7 * time.Minute, time.Hour} {
				_, down := linkDown(seed, l, from, to, now)
				first[key{from, to, now}] = down
			}
		}
	}
	// Re-query in reverse order, interleaved with extra consultations.
	for from := 19; from >= 0; from-- {
		for to := 19; to >= 0; to-- {
			if from == to {
				continue
			}
			linkDown(seed, l, 5, 6, time.Minute) // unrelated traffic
			for _, now := range []time.Duration{time.Hour, 7 * time.Minute, 3 * time.Minute, 0} {
				_, down := linkDown(seed, l, from, to, now)
				if down != first[key{from, to, now}] {
					t.Fatalf("link (%d→%d, %v) changed answer on re-query", from, to, now)
				}
			}
		}
	}
}

// TestLinkTableKinds checks each fault family's shape: dead links are dead
// both ways and forever; one-way links are dead in exactly one direction;
// flapping links alternate with roughly the configured duty cycle.
func TestLinkTableKinds(t *testing.T) {
	const seed = 42
	t.Run("drop is symmetric and permanent", func(t *testing.T) {
		l := LinkSpec{DropFraction: 0.3}
		found := 0
		for a := 0; a < 30; a++ {
			for b := a + 1; b < 30; b++ {
				k1, d1 := linkDown(seed, l, a, b, 0)
				k2, d2 := linkDown(seed, l, b, a, 5*time.Hour)
				if d1 != d2 || k1 != k2 {
					t.Fatalf("drop link (%d,%d) asymmetric or time-varying", a, b)
				}
				if d1 {
					found++
				}
			}
		}
		if found == 0 {
			t.Fatal("30% drop fraction selected no links out of 435")
		}
	})
	t.Run("oneway is dead in exactly one direction", func(t *testing.T) {
		l := LinkSpec{OneWayFraction: 0.3}
		found := 0
		for a := 0; a < 30; a++ {
			for b := a + 1; b < 30; b++ {
				_, ab := linkDown(seed, l, a, b, 0)
				_, ba := linkDown(seed, l, b, a, 0)
				if ab && ba {
					t.Fatalf("one-way link (%d,%d) dead in both directions", a, b)
				}
				if ab || ba {
					found++
				}
			}
		}
		if found == 0 {
			t.Fatal("30% one-way fraction selected no links out of 435")
		}
	})
	t.Run("flap follows the duty cycle", func(t *testing.T) {
		l := LinkSpec{FlapFraction: 1, FlapPeriod: 10 * time.Minute, FlapDuty: 0.7}
		// Every link flaps; sample one full period at second resolution.
		upSeconds := 0
		total := int(l.FlapPeriod / time.Second)
		for s := 0; s < total; s++ {
			if _, down := linkDown(seed, l, 3, 4, time.Duration(s)*time.Second); !down {
				upSeconds++
			}
		}
		got := float64(upSeconds) / float64(total)
		if got < 0.69 || got > 0.71 {
			t.Errorf("flap duty: link up %.3f of the period, want 0.70", got)
		}
		// Periodicity: the state one full period later is identical.
		for _, now := range []time.Duration{0, time.Minute, 4 * time.Minute, 9 * time.Minute} {
			_, d1 := linkDown(seed, l, 3, 4, now)
			_, d2 := linkDown(seed, l, 3, 4, now+l.FlapPeriod)
			if d1 != d2 {
				t.Errorf("flap state at %v differs one period later", now)
			}
		}
	})
}

// TestStreamDeterminism pins the SplitMix64 stream: same seed, same
// sequence; different salts, different sequences.
func TestStreamDeterminism(t *testing.T) {
	a := parallel.NewStream(deriveStreamSeed(7, saltChaos))
	b := parallel.NewStream(deriveStreamSeed(7, saltChaos))
	c := parallel.NewStream(deriveStreamSeed(7, saltLinks))
	same, diff := true, false
	for i := 0; i < 64; i++ {
		av := a.Next()
		if av != b.Next() {
			same = false
		}
		if av != c.Next() {
			diff = true
		}
	}
	if !same {
		t.Error("same-seed streams diverged")
	}
	if !diff {
		t.Error("differently-salted streams produced identical sequences")
	}
	u := parallel.NewStream(99)
	for i := 0; i < 1000; i++ {
		if v := u.Float64(); v < 0 || v >= 1 {
			t.Fatalf("float64 out of [0,1): %v", v)
		}
	}
	e := parallel.NewStream(99)
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d := expDuration(&e, time.Hour)
		if d < 0 {
			t.Fatalf("negative exponential duration %v", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 50*time.Minute || mean > 70*time.Minute {
		t.Errorf("exponential mean %v far from 1h", mean)
	}
}

// TestInterceptDeterministic runs two same-seed injectors through an
// identical call sequence and requires identical verdicts — the property
// that makes a faulted simulation replayable.
func TestInterceptDeterministic(t *testing.T) {
	sc := Flaky()
	a, err := NewInjector(sc, 123, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(sc, 123, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		from, to := i%17, (i*7+3)%17
		if from == to {
			continue
		}
		now := time.Duration(i) * 3 * time.Second
		va := a.Intercept(p2p.NodeID(from), p2p.NodeID(to), now)
		vb := b.Intercept(p2p.NodeID(from), p2p.NodeID(to), now)
		if va != vb {
			t.Fatalf("call %d: verdicts diverged: %+v vs %+v", i, va, vb)
		}
	}
}

// countDown returns how many cells gi currently has churned out.
func countDown(gi *GridInjector) int {
	n := 0
	for _, d := range gi.down {
		if d {
			n++
		}
	}
	return n
}

// TestGridInjectorDeterministic: two same-seed grid injectors flip the same
// cells at the same steps, and the exempt cell never goes down.
func TestGridInjectorDeterministic(t *testing.T) {
	sc := Scenario{Churn: ChurnSpec{Fraction: 0.5, MeanUptime: 10 * time.Minute, MeanDowntime: 5 * time.Minute}}
	const cells, exempt = 100, 37
	step := 12 * time.Second
	a, err := NewGridInjector(sc, 9, cells, step, exempt, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGridInjector(sc, 9, cells, step, exempt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for s := 0; s < 500; s++ {
		a.StepChurn(s)
		b.StepChurn(s)
		for i := 0; i < cells; i++ {
			if a.Down(i) != b.Down(i) {
				t.Fatalf("step %d: cell %d state diverged between same-seed injectors", s, i)
			}
		}
		if a.Down(exempt) {
			t.Fatalf("step %d: exempt cell churned out", s)
		}
		if countDown(a) > 0 {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("50% churn never took a cell down in 500 steps")
	}
	// Zero scenario: no churn list, no down cells, every link up.
	z, err := NewGridInjector(Scenario{}, 9, cells, step, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 50; s++ {
		z.StepChurn(s)
		if countDown(z) != 0 {
			t.Fatal("zero-scenario grid injector took a cell down")
		}
		if c, _ := z.LinkClass(0, 1); c != LinkUp || z.ChaosLoss() {
			t.Fatal("zero-scenario grid injector interfered with a link")
		}
	}
}
