package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map = %v, %v", got, err)
	}
}

func TestMapBoundedWorkers(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(workers, 50, func(i int) (struct{}, error) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, bound %d", p, workers)
	}
}

func TestMapFirstErrorByTaskIndex(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, boom(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Errorf("workers=%d: err = %v, want task 7", workers, err)
		}
	}
}

// TestMapErrorReturnsNilResults pins the no-partial-results contract: a
// failed sweep must not hand back the slots that happened to succeed, or a
// caller that mishandles the error pair feeds zero-valued rows downstream
// (the Figure6All / MaxVulnerableParallel regression).
func TestMapErrorReturnsNilResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, err := Map(workers, 20, func(i int) (int, error) {
			if i == 13 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i + 1, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if got != nil {
			t.Errorf("workers=%d: partial results %v leaked alongside the error", workers, got)
		}
	}
}

func TestMapPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 10, func(i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Task != 3 || pe.Value != "kaboom" {
			t.Errorf("workers=%d: attribution = task %d value %v", workers, pe.Task, pe.Value)
		}
		if !strings.Contains(pe.Error(), "task 3 panicked: kaboom") {
			t.Errorf("workers=%d: message %q", workers, pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
	}
}

// TestMapStopsClaimingAfterFailure pins the stop-after-failure contract at
// one worker, where claiming is strictly sequential: no task after the
// failing one starts, and the error is the one a full run would report.
func TestMapStopsClaimingAfterFailure(t *testing.T) {
	var started []int
	_, err := Map(1, 10, func(i int) (int, error) {
		started = append(started, i)
		if i == 4 {
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 4 failed" {
		t.Errorf("err = %v, want task 4", err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(started, want) {
		t.Errorf("started %v, want %v", started, want)
	}
}

// TestTrialsPanicSeedAttribution pins the satellite fix: a panic inside a
// seeded trial must carry both the task index and the derived seed, so the
// failing replicate can be reproduced standalone.
func TestTrialsPanicSeedAttribution(t *testing.T) {
	const root = int64(42)
	for _, workers := range []int{1, 4} {
		_, err := Trials(workers, root, 10, func(trial int, seed int64) (int, error) {
			if trial == 6 {
				panic("seeded kaboom")
			}
			return trial, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		want := DeriveSeed(root, 6)
		if pe.Task != 6 || !pe.Seeded || pe.Seed != want {
			t.Errorf("workers=%d: attribution task=%d seeded=%v seed=%d, want task 6 seed %d",
				workers, pe.Task, pe.Seeded, pe.Seed, want)
		}
		msg := fmt.Sprintf("task 6 (seed %d) panicked: seeded kaboom", want)
		if !strings.Contains(pe.Error(), msg) {
			t.Errorf("workers=%d: message %q missing %q", workers, pe.Error(), msg)
		}
	}
}

// TestSweepTrialsNilResultsOnError extends the Map no-partial-results
// regression to the other two entry points: Sweep and Trials must also
// withhold the result slice when any task fails.
func TestSweepTrialsNilResultsOnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		params := make([]int, 20)
		got, err := Sweep(workers, params, func(i, _ int) (int, error) {
			if i == 13 {
				return 0, fmt.Errorf("param %d failed", i)
			}
			return i + 1, nil
		})
		if err == nil || got != nil {
			t.Errorf("Sweep workers=%d: results=%v err=%v, want nil results with error", workers, got, err)
		}
		got, err = Trials(workers, 7, 20, func(trial int, seed int64) (int, error) {
			if trial == 13 {
				return 0, fmt.Errorf("trial %d failed", trial)
			}
			return trial + 1, nil
		})
		if err == nil || got != nil {
			t.Errorf("Trials workers=%d: results=%v err=%v, want nil results with error", workers, got, err)
		}
	}
}

func TestSweep(t *testing.T) {
	params := []string{"a", "bb", "ccc"}
	got, err := Sweep(2, params, func(i int, p string) (int, error) { return len(p), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("sweep = %v", got)
	}
}

// TestTrialsDeterministic is the core contract: the per-trial seed sequence,
// and therefore the whole ensemble, is identical for any worker count.
func TestTrialsDeterministic(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := Trials(workers, 42, 64, func(trial int, seed int64) (int64, error) {
			return seed, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 8, 32} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: seed stream diverged", workers)
		}
	}
}

func TestDeriveSeedGolden(t *testing.T) {
	// Pin the derivation function: changing it silently would invalidate
	// every recorded experiment. Values computed from the SplitMix64
	// definition at state root + (i+1)*gamma.
	if a, b := DeriveSeed(1, 0), DeriveSeed(1, 0); a != b {
		t.Fatal("derivation not pure")
	}
	seen := map[int64]bool{}
	for root := int64(0); root < 4; root++ {
		for i := 0; i < 1000; i++ {
			s := DeriveSeed(root, i)
			if seen[s] {
				t.Fatalf("collision at root=%d i=%d", root, i)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) {
		t.Error("adjacent indices collide")
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("adjacent roots collide")
	}
}

// TestMix64MatchesDeriveSeed pins Mix64 to the SplitMix64 finalizer as
// published, written out here with its constants, and DeriveSeed to one
// finalizer step at root + (i+1)·Gamma.
func TestMix64MatchesDeriveSeed(t *testing.T) {
	root, i := int64(12345), 6
	want := uint64(root) + (uint64(i)+1)*0x9E3779B97F4A7C15
	want ^= want >> 30
	want *= 0xBF58476D1CE4E5B9
	want ^= want >> 27
	want *= 0x94D049BB133111EB
	want ^= want >> 31
	if got := Mix64(uint64(root) + (uint64(i)+1)*Gamma); got != want {
		t.Fatalf("Mix64 = %#x, want %#x", got, want)
	}
	if got := DeriveSeed(root, i); got != int64(want) {
		t.Fatalf("DeriveSeed = %#x, want %#x", got, want)
	}
	// Mix64 is bijective with fixed point 0; nearby nonzero inputs must
	// scatter.
	if Mix64(1) == Mix64(2) || Mix64(1)^Mix64(2) < 1<<32 {
		t.Fatal("Mix64 fails the smoke avalanche check")
	}
}

// TestStreamDraws pins the stream to the finalizer: the k-th draw of the
// stream of seed s is Mix64(s + k·Gamma), its uniform is the draw's top 53
// bits, and a Bernoulli at p <= 0 leaves the stream where it was.
func TestStreamDraws(t *testing.T) {
	seed := int64(-7)
	s := NewStream(seed)
	for k := uint64(1); k <= 4; k++ {
		if got, want := s.Next(), Mix64(uint64(seed)+k*Gamma); got != want {
			t.Fatalf("draw %d = %#x, want %#x", k, got, want)
		}
	}
	u := NewStream(seed)
	if got, want := u.Float64(), float64(Mix64(uint64(seed)+Gamma)>>11)/(1<<53); got != want {
		t.Fatalf("Float64 = %v, want %v", got, want)
	}
	b := NewStream(seed)
	if b.Bernoulli(0) || b.Bernoulli(-1) {
		t.Fatal("Bernoulli(p <= 0) returned true")
	}
	if b != NewStream(seed) {
		t.Fatal("Bernoulli(p <= 0) advanced the stream")
	}
	if !b.Bernoulli(1) || b == NewStream(seed) {
		t.Fatal("Bernoulli(1) did not draw true")
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Errorf("DefaultWorkers() = %d", DefaultWorkers())
	}
}
