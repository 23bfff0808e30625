package integration

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// renderAll reproduces `partition experiment all -seed 1` byte for byte:
// each experiment's text followed by a blank line, in presentation order.
// Extra options (a fault scenario, say) are applied on top.
func renderAll(t *testing.T, workers int, observer *obs.Observer, extra ...core.Option) []byte {
	t.Helper()
	opts := []core.Option{core.WithWorkers(workers)}
	if observer != nil {
		opts = append(opts, core.WithObserver(observer))
	}
	opts = append(opts, extra...)
	study, err := core.New(1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	outputs, err := study.RunAll(workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, out := range outputs {
		buf.WriteString(out.Text)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestExperimentAllGolden pins the full seed-1 evaluation to the checked-in
// golden: byte-identical with observability off at workers 1 and 8, and
// still byte-identical with a full observer attached — instrumentation must
// never perturb experiment output (DESIGN.md §9).
func TestExperimentAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation × 3 configurations")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		workers  int
		observer *obs.Observer
	}{
		{"workers1", 1, nil},
		{"workers8", 8, nil},
		{"workers8_observed", 8, obs.New(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := renderAll(t, tc.workers, tc.observer)
			if !bytes.Equal(got, want) {
				t.Errorf("output diverged from golden (%d bytes vs %d)", len(got), len(want))
			}
		})
	}
}

// TestExperimentAllChurnyGolden pins `experiment all -seed 1 -faults churny`
// to its own golden at workers 1 and 8: fault injection is part of the
// deterministic surface, so a faulted run must be byte-identical at any
// worker count and stable release to release.
func TestExperimentAllChurnyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation × 2 configurations")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1_churny.golden")
	if err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile("testdata/experiment_all_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, base) {
		t.Fatal("churny golden is identical to the faults-off golden; churn injected nothing")
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			got := renderAll(t, workers, nil, func(s *core.Study) { s.Opts.Faults = faults.Churny() })
			if !bytes.Equal(got, want) {
				t.Errorf("output diverged from churny golden (%d bytes vs %d)", len(got), len(want))
			}
		})
	}
}

// TestZeroScenarioIsNoOp proves the Scenario zero value injects nothing:
// running the full evaluation with an explicit empty scenario must be
// byte-identical to the faults-off golden. This is the guarantee that lets
// Config.Faults live in every substrate config without moving old output.
func TestZeroScenarioIsNoOp(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	want, err := os.ReadFile("testdata/experiment_all_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, 8, nil, func(s *core.Study) { s.Opts.Faults = faults.Scenario{} })
	if !bytes.Equal(got, want) {
		t.Errorf("zero-value Scenario perturbed output (%d bytes vs %d)", len(got), len(want))
	}
}

// planEnv builds the plan context the CLI builds, at a reduced network
// scale so the seven-plan sweep stays fast.
func planEnv(t *testing.T, seed int64, observer *obs.Observer) attack.Env {
	t.Helper()
	study, err := core.New(seed,
		core.WithNetworkNodes(80),
		core.WithObserver(observer),
	)
	if err != nil {
		t.Fatal(err)
	}
	return attack.Env{
		Pop:          study.Pop,
		NetworkNodes: study.Opts.NetworkNodes,
		Seed:         study.Seed(),
		Obs:          observer,
	}
}

// TestAttackPlansUnderChurny runs every registered attack plan under the
// churny preset — the CLI's `-faults churny attack <name>` path — and checks
// each still completes with a summary, twice with identical results. The
// fault scenario reaches every simulation a plan builds through Env.Faults.
func TestAttackPlansUnderChurny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven attack scenarios twice")
	}
	run := func() map[string]string {
		study, err := core.New(1,
			core.WithNetworkNodes(80),
			func(s *core.Study) { s.Opts.Faults = faults.Churny() },
		)
		if err != nil {
			t.Fatal(err)
		}
		env := attack.Env{
			Pop:          study.Pop,
			NetworkNodes: study.Opts.NetworkNodes,
			Seed:         study.Seed(),
			Faults:       study.Opts.Faults,
		}
		summaries := map[string]string{}
		for _, name := range attack.PlanNames() {
			summary, err := attack.RunPlan(name, env)
			if err != nil {
				t.Fatalf("%s under churny: %v", name, err)
			}
			if summary == "" {
				t.Fatalf("%s under churny: empty summary", name)
			}
			summaries[name] = summary
		}
		return summaries
	}
	first := run()
	if len(first) != len(attack.PlanNames()) {
		t.Fatalf("ran %d plans, registry has %d", len(first), len(attack.PlanNames()))
	}
	second := run()
	for name, want := range first {
		if got := second[name]; got != want {
			t.Errorf("%s: same-seed churny reruns diverged:\n--- first ---\n%s--- second ---\n%s",
				name, want, got)
		}
	}
}

// TestTraceDeterministicAndReplaysSummaries runs every registered attack
// plan twice with tracing on and asserts (a) the two JSONL exports are
// byte-identical, and (b) decoding a trace and replaying it reproduces each
// plan's summary exactly: the replayability contract.
func TestTraceDeterministicAndReplaysSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven attack scenarios twice")
	}
	run := func() (map[string]string, []byte) {
		observer := obs.New(0)
		env := planEnv(t, 1, observer)
		summaries := map[string]string{}
		for _, name := range attack.PlanNames() {
			summary, err := attack.RunPlan(name, env)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if summary == "" {
				t.Fatalf("%s: empty summary", name)
			}
			if !hasPlanMetric(observer.Registry().Snapshot(), name) {
				t.Errorf("%s: no headline metrics", name)
			}
			summaries[name] = summary
		}
		var buf bytes.Buffer
		if err := observer.Tracer().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return summaries, buf.Bytes()
	}

	summaries, jsonl := run()
	if len(summaries) != len(attack.PlanNames()) {
		t.Fatalf("ran %d plans, registry has %d", len(summaries), len(attack.PlanNames()))
	}
	_, jsonl2 := run()
	if !bytes.Equal(jsonl, jsonl2) {
		t.Error("two same-seed trace exports differ")
	}

	log, err := obs.DecodeJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	replayed := attack.ReplaySummaries(log)
	for name, want := range summaries {
		if got, ok := replayed[name]; !ok {
			t.Errorf("%s: summary missing from trace", name)
		} else if got != want {
			t.Errorf("%s: replayed summary diverged:\n--- live ---\n%s--- replay ---\n%s", name, want, got)
		}
	}
}

// hasPlanMetric reports whether the snapshot holds a headline metric of the
// named plan (a `plan.<name>.` series).
func hasPlanMetric(snap obs.Snapshot, name string) bool {
	prefix := "plan." + name + "."
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			return true
		}
	}
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			return true
		}
	}
	return false
}
