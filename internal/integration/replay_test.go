package integration

import (
	"bytes"
	"testing"

	"repro/internal/attack"
	"repro/internal/obs"
)

// runPlansWithCapacity runs every attack plan under a tracer with the given
// ring capacity and returns the live summaries, the decoded trace, and the
// plan names in execution order.
func runPlansWithCapacity(t *testing.T, capacity int) (map[string]string, *obs.TraceLog, []string) {
	t.Helper()
	observer := obs.New(capacity)
	env := planEnv(t, 1, observer)
	live := map[string]string{}
	var order []string
	for _, name := range attack.PlanNames() {
		summary, err := attack.RunPlan(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		live[name] = summary
		order = append(order, name)
	}
	var buf bytes.Buffer
	if err := observer.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	log, err := obs.DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return live, log, order
}

// TestReplaySummariesSurvivesDroppedEvents pins the tracer's dropped-event
// contract (see obs.Tracer): when the ring overflows mid-run, the oldest
// events are evicted, but each plan's summary event is emitted at plan
// completion — so a capacity that holds the tail of the run still replays
// every summary, and ReplaySummaries must not be confused by the truncated
// prefix.
func TestReplaySummariesSurvivesDroppedEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven attack scenarios")
	}
	// First a full-capacity run to learn how many events the sweep emits.
	_, full, _ := runPlansWithCapacity(t, 0)
	if full.Dropped != 0 {
		t.Fatalf("default capacity dropped %d events; enlarge DefaultTraceCapacity in this test", full.Dropped)
	}
	total := len(full.Events)
	if total < 100 {
		t.Fatalf("sweep emitted only %d events; ring-overflow test needs more", total)
	}

	// Half the events fit: the prefix is evicted mid-run. Every summary
	// still in the ring must replay byte-identically — a truncated prefix
	// may lose whole summaries (counted in Dropped) but never corrupt the
	// surviving ones.
	live, log, order := runPlansWithCapacity(t, total/2)
	if log.Dropped == 0 {
		t.Fatalf("capacity %d of %d events dropped nothing", total/2, total)
	}
	replayed := attack.ReplaySummaries(log)
	if len(replayed) == 0 {
		t.Fatal("half-capacity ring replayed no summaries at all")
	}
	for name, got := range replayed {
		if want, ok := live[name]; !ok {
			t.Errorf("%s: replay invented a plan that never ran", name)
		} else if got != want {
			t.Errorf("%s: replayed summary diverged after ring overflow", name)
		}
	}

	// A ring that only holds the last plan's events evicts earlier
	// summaries: the replay map is incomplete, and the trace says so via
	// Dropped — the documented way callers detect this.
	live, log, order = runPlansWithCapacity(t, 10)
	if log.Dropped == 0 {
		t.Fatal("capacity 10 dropped nothing")
	}
	replayed = attack.ReplaySummaries(log)
	if len(replayed) >= len(live) {
		t.Fatalf("tiny ring replayed %d of %d summaries; expected evictions", len(replayed), len(live))
	}
	last := order[len(order)-1]
	if got, ok := replayed[last]; !ok {
		t.Errorf("%s: final plan's summary must survive any non-zero ring", last)
	} else if got != live[last] {
		t.Errorf("%s: final summary diverged in tiny ring", last)
	}
}
