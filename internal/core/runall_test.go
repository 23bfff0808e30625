package core

import (
	"reflect"
	"strings"
	"testing"
)

func workerStudy(t *testing.T, workers int) *Study {
	t.Helper()
	s, err := New(1,
		WithWindows(1, 1),
		WithGridSize(25),
		WithNetworkNodes(120),
		WithWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPopulationMemoized pins that a seed's population is generated once:
// studies of one seed share the generated node and AS rows (one backing
// array each), while a different seed builds its own.
func TestPopulationMemoized(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Pop.Nodes[0] != &b.Pop.Nodes[0] || &a.Pop.ASRows[0] != &b.Pop.ASRows[0] {
		t.Error("same seed built two populations")
	}
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if &c.Pop.Nodes[0] == &a.Pop.Nodes[0] {
		t.Error("different seeds share a population")
	}
}

// TestStudiesOwnTheirRouteTable pins that the memoized population stays
// read-only: two studies of one seed share the generated nodes but not the
// BGP route table, so a hijack one study announces is invisible to the
// other (concurrent spatial attacks on one seed used to collide there).
func TestStudiesOwnTheirRouteTable(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Pop.Nodes[0] != &b.Pop.Nodes[0] {
		t.Fatal("same seed built two populations")
	}
	if a.Pop.Topo.Routes() == b.Pop.Topo.Routes() {
		t.Fatal("studies of one seed share a route table")
	}
	victim, ok := a.Pop.Topo.AS(24940)
	if !ok || len(victim.Prefixes) == 0 {
		t.Fatal("AS24940 has no prefixes to hijack")
	}
	if err := a.Pop.Topo.Routes().HijackPrefix(666, victim.Prefixes[0]); err != nil {
		t.Fatal(err)
	}
	if a.Pop.Topo.Routes().HijackCount() == 0 {
		t.Fatal("hijack was not announced")
	}
	if got := b.Pop.Topo.Routes().HijackCount(); got != 0 {
		t.Errorf("hijack on one study leaked %d routes into another", got)
	}
}

// TestRunAllSurfacesExperimentError pins the bugfix for silently partial
// sweeps: when one experiment fails (here Figure 6a, via an invalid trend
// window), RunAll must return a nil result set and the named error — not a
// slice with zero-valued rows in the failed slots.
func TestRunAllSurfacesExperimentError(t *testing.T) {
	s, err := New(1,
		WithWindows(1, -1), // Figure6aDays < 0: the figure6a trace fails
		WithGridSize(25),
		WithNetworkNodes(120),
	)
	if err != nil {
		t.Fatal(err)
	}
	outputs, err := s.RunAll(0)
	if err == nil {
		t.Fatal("RunAll succeeded with an invalid Figure 6a window")
	}
	if !strings.Contains(err.Error(), "figure6a") {
		t.Errorf("error %q does not name the failing experiment", err)
	}
	if outputs != nil {
		t.Errorf("RunAll leaked %d partial outputs alongside the error", len(outputs))
	}
}

func TestRunAllNamesAndOrder(t *testing.T) {
	s := testStudy(t)
	outputs, err := s.RunAll(0)
	if err != nil {
		t.Fatal(err)
	}
	names := ExperimentNames()
	if len(outputs) != len(names) {
		t.Fatalf("outputs = %d, want %d", len(outputs), len(names))
	}
	for i, out := range outputs {
		if out.Name != names[i] {
			t.Errorf("slot %d: %q, want %q", i, out.Name, names[i])
		}
		if out.Text == "" {
			t.Errorf("%s: empty rendering", out.Name)
		}
	}
	if !strings.Contains(outputs[0].Text, "Table I") {
		t.Error("table1 rendering wrong")
	}
	if !strings.Contains(outputs[len(outputs)-1].Text, "Figure 8") {
		t.Error("figure8 rendering wrong")
	}
}

// TestRunAllDeterministicAcrossWorkers is the ISSUE's regression contract
// at the orchestration layer: the full rendered evaluation is byte-identical
// for workers ∈ {1, 2, 8}.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation × 3 worker counts")
	}
	baseline, err := workerStudy(t, 1).RunAll(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := workerStudy(t, workers).RunAll(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, baseline) {
			for i := range baseline {
				if got[i] != baseline[i] {
					t.Errorf("workers=%d: %s diverged", workers, baseline[i].Name)
				}
			}
		}
	}
}

// TestFigure4DeterministicAcrossWorkers pins the parallel per-AS hijack
// sweep to the sequential rendering.
func TestFigure4DeterministicAcrossWorkers(t *testing.T) {
	base, err := workerStudy(t, 1).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()
	for _, workers := range []int{2, 8} {
		r, err := workerStudy(t, workers).Figure4()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.Render() != want {
			t.Errorf("workers=%d: Figure 4 diverged", workers)
		}
	}
}

// TestTableVDeterministicAcrossWorkers pins the parallel lag-window scan.
func TestTableVDeterministicAcrossWorkers(t *testing.T) {
	base, err := workerStudy(t, 1).TableV()
	if err != nil {
		t.Fatal(err)
	}
	want := base.Render()
	for _, workers := range []int{2, 8} {
		r, err := workerStudy(t, workers).TableV()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.Render() != want {
			t.Errorf("workers=%d: Table V diverged", workers)
		}
	}
}
