package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/topology"
)

var sharedStudy *Study

func testStudy(t *testing.T) *Study {
	t.Helper()
	if sharedStudy == nil {
		s, err := New(1,
			WithWindows(1, 1),
			WithGridSize(25),
			WithNetworkNodes(120),
		)
		if err != nil {
			t.Fatal(err)
		}
		sharedStudy = s
	}
	return sharedStudy
}

func TestTableI(t *testing.T) {
	r := testStudy(t).TableI()
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	out := r.Render()
	for _, want := range []string{"Table I", "IPv4", "IPv6", "TOR", "12737"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableII(t *testing.T) {
	r := testStudy(t).TableII()
	if r.ASes[0].Label != "AS24940" || r.Orgs[0].Label != "Hetzner Online GmbH" {
		t.Errorf("top rows: %+v / %+v", r.ASes[0], r.Orgs[0])
	}
	out := r.Render()
	for _, want := range []string{"AS24940", "Hetzner", "7.5", "Amazon"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTableIII(t *testing.T) {
	r, err := testStudy(t).TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.Render(), "Change %") {
		t.Error("render missing header")
	}
}

func TestTableIV(t *testing.T) {
	r, err := testStudy(t).TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ThreeASShare-0.657) > 1e-9 {
		t.Errorf("three-AS share = %v", r.ThreeASShare)
	}
	if math.Abs(r.AliBabaShare-0.657) > 1e-9 {
		t.Errorf("AliBaba share = %v", r.AliBabaShare)
	}
	if !strings.Contains(r.Render(), "BTC.com") {
		t.Error("render missing pool")
	}
}

func TestTableV(t *testing.T) {
	r, err := testStudy(t).TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Monotone decreasing in the window, per the paper.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Max[0] > r.Rows[i-1].Max[0] {
			t.Error("not monotone")
		}
	}
	if !strings.Contains(r.Render(), "T (min)") {
		t.Error("render missing header")
	}
}

func TestTableVI(t *testing.T) {
	r, err := testStudy(t).TableVI()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the λ=0.8, m=500 cell against the paper's 589 s.
	var got int
	for i, l := range r.Table.Lambdas {
		for j, m := range r.Table.Ms {
			if l == 0.8 && m == 500 {
				got = r.Table.Seconds[i][j]
			}
		}
	}
	if got < 470 || got > 710 {
		t.Errorf("T(0.8, 500) = %d, paper 589", got)
	}
	if !strings.Contains(r.Render(), "Table VI") {
		t.Error("render missing title")
	}
}

func TestTableVII(t *testing.T) {
	r, err := testStudy(t).TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.TopFraction < 0.10 || r.TopFraction > 0.50 {
		t.Errorf("top fraction = %v, paper ~0.28", r.TopFraction)
	}
	if !strings.Contains(r.Render(), "Table VII") {
		t.Error("render missing title")
	}
}

func TestTableVIII(t *testing.T) {
	r := testStudy(t).TableVIII()
	if r.Variants != dataset.TotalSoftwareVariants {
		t.Errorf("variants = %d", r.Variants)
	}
	if r.Rows[0].Version != "Bitcoin Core v0.16.0" {
		t.Errorf("top = %q", r.Rows[0].Version)
	}
	if r.VulnerableShare < 0.5 {
		t.Errorf("vulnerable share = %v", r.VulnerableShare)
	}
	if !strings.Contains(r.Render(), "0.16.0") {
		t.Error("render missing version")
	}
}

func TestFigure3(t *testing.T) {
	r, err := testStudy(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if r.ASFor30 < 7 || r.ASFor30 > 9 {
		t.Errorf("ASFor30 = %d", r.ASFor30)
	}
	if r.ASFor50 < 22 || r.ASFor50 > 26 {
		t.Errorf("ASFor50 = %d", r.ASFor50)
	}
	if r.ASFor100 != dataset.BitcoinASes {
		t.Errorf("ASFor100 = %d", r.ASFor100)
	}
	if r.OrgFor50 >= r.ASFor50 {
		t.Error("orgs should be more concentrated than ASes")
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigure4(t *testing.T) {
	r, err := testStudy(t).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 5 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	if r.For95[24940] > 25 {
		t.Errorf("AS24940 95%% at %d hijacks", r.For95[24940])
	}
	if r.For95[16509] <= 140 {
		t.Errorf("AS16509 95%% at %d hijacks, want > 140", r.For95[16509])
	}
	if !strings.Contains(r.Render(), "AS16509") {
		t.Error("render missing AS")
	}
}

func TestFigure6AllVariants(t *testing.T) {
	s := testStudy(t)
	for _, v := range []Figure6Variant{Figure6a, Figure6b, Figure6c} {
		r, err := s.Figure6(v)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if len(r.Trace.Samples) == 0 {
			t.Fatalf("variant %d: empty trace", v)
		}
		if !strings.Contains(r.Render(), "Figure 6") {
			t.Error("render missing title")
		}
	}
	if _, err := s.Figure6(Figure6Invalid); err == nil {
		t.Error("invalid variant accepted")
	}
}

// TestFigure7 runs the figure at the paper's displayed grid (25×25), at
// 50×50, and at the paper's 10,000-node scale (100×100): the panels track
// the block interval, so every size shows a live attack fork.
func TestFigure7(t *testing.T) {
	for _, size := range []int{25, 50, 100} {
		t.Run(fmt.Sprintf("grid%d", size), func(t *testing.T) {
			s := testStudy(t)
			if size != s.Opts.GridSize {
				var err error
				if s, err = New(1, WithWindows(1, 1), WithGridSize(size), WithNetworkNodes(120)); err != nil {
					t.Fatal(err)
				}
			}
			r, err := s.Figure7()
			if err != nil {
				t.Fatal(err)
			}
			spb := 2 * size
			if want := []int{3*spb + 1, 4*spb + 1, 5*spb + 1}; !reflect.DeepEqual(r.Steps, want) {
				t.Fatalf("panel steps = %v, want %v", r.Steps, want)
			}
			if len(r.Snapshots) != 3 {
				t.Fatalf("snapshots = %d", len(r.Snapshots))
			}
			if r.ForksEmerged == 0 {
				t.Error("no forks under 30% attacker")
			}
			out := r.Render()
			if !strings.Contains(out, fmt.Sprintf("time step %d", r.Steps[0])) || !strings.Contains(out, "fork map") {
				t.Error("render incomplete")
			}
		})
	}
}

// TestHealStudyStepBudget: the heal study arms the study's watchdog on
// every replicate, so a budget shorter than the heal horizon fails the
// study with the budget error instead of finishing as if unbudgeted.
func TestHealStudyStepBudget(t *testing.T) {
	s, err := New(1, WithWindows(1, 1), WithGridSize(25), WithNetworkNodes(120), WithStepBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.HealStudy()
	if !errors.Is(err, checkpoint.ErrBudget) {
		t.Fatalf("HealStudy = %v, want wrap of checkpoint.ErrBudget", err)
	}
	if res != nil {
		t.Error("heal study result leaked alongside the budget error")
	}
}

func TestFigure8(t *testing.T) {
	r, err := testStudy(t).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Synced) != len(r.Trace.Samples) {
		t.Error("series length mismatch")
	}
	if len(r.TopASes) != 5 {
		t.Fatalf("top ASes = %d", len(r.TopASes))
	}
	for asn, series := range r.ASSeries {
		if len(series) != len(r.Trace.Samples) {
			t.Fatalf("AS%d series length %d", asn, len(series))
		}
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Error("render missing title")
	}
}

func TestDemos(t *testing.T) {
	s := testStudy(t)
	out1, err := s.Figure1Demo()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out1, "Figure 1") {
		t.Error("figure 1 demo incomplete")
	}
	out2, err := s.Figure2Demo()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "AS200") || !strings.Contains(out2, "AS300") {
		t.Errorf("figure 2 demo incomplete:\n%s", out2)
	}
	res, out5, err := s.Figure5Demo()
	if err != nil {
		t.Fatal(err)
	}
	if res.CounterfeitBlocks == 0 {
		t.Error("figure 5 demo mined nothing")
	}
	if !strings.Contains(out5, "captured at release") {
		t.Error("figure 5 narrative incomplete")
	}
}

func TestNewSimFromPopulation(t *testing.T) {
	s := testStudy(t)
	sim, err := s.NewSimFromPopulation(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Profiles must be carried over: at least one Hetzner node expected
	// when striding the full population.
	found := false
	for _, n := range sim.Network.Nodes {
		if n.Profile.ASN == topology.ASN(24940) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no Hetzner-hosted node in the sampled sim")
	}
	if _, err := s.NewSimFromPopulation(0, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := s.NewSimFromPopulation(1e7, 1); err == nil {
		t.Error("oversize accepted")
	}
}

func TestFullOptions(t *testing.T) {
	opts := Full()
	if opts.GridSize != 100 || opts.NetworkNodes != 10000 || opts.TableVTraceDays != 60 {
		t.Errorf("Full() = %+v", opts)
	}
}
