package dataset

import (
	"testing"
	"time"
)

func runTrace(t *testing.T, cfg TraceConfig) *Trace {
	t.Helper()
	tr, err := testPop(t).RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunTraceValidation(t *testing.T) {
	p := testPop(t)
	if _, err := p.RunTrace(TraceConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := p.RunTrace(TraceConfig{Duration: time.Minute, SampleEvery: time.Hour}); err == nil {
		t.Error("sample interval > duration accepted")
	}
}

func TestTraceSampleCountsAndInvariants(t *testing.T) {
	tr := runTrace(t, TraceConfig{Duration: 6 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 2})
	if got, want := len(tr.Samples), 36; got != want {
		t.Fatalf("samples = %d, want %d", got, want)
	}
	for i, s := range tr.Samples {
		total := 0
		for _, b := range s.Buckets {
			total += b
		}
		if total != s.UpNodes {
			t.Fatalf("sample %d: buckets sum %d != up nodes %d", i, total, s.UpNodes)
		}
		// Vulnerability counts are monotone: longer windows and higher
		// thresholds can only shrink the set.
		for wi := 1; wi < len(s.Vulnerable); wi++ {
			for ti := 0; ti < 3; ti++ {
				if s.Vulnerable[wi][ti] > s.Vulnerable[wi-1][ti] {
					t.Fatalf("sample %d: vulnerable not monotone in window", i)
				}
			}
		}
		for wi := range s.Vulnerable {
			if s.Vulnerable[wi][1] > s.Vulnerable[wi][0] || s.Vulnerable[wi][2] > s.Vulnerable[wi][1] {
				t.Fatalf("sample %d: vulnerable not monotone in threshold", i)
			}
		}
	}
	// ~6 blocks/hour expected.
	if tr.Blocks < 15 || tr.Blocks > 65 {
		t.Errorf("blocks = %d over 6h, want ~36", tr.Blocks)
	}
}

func TestTraceGeneralTrendMatchesFigure6a(t *testing.T) {
	// Over a multi-day window with 10-minute sampling: a majority of
	// samples should show >= 50% of nodes synced or 1-behind, and the
	// stale floor should keep >= 5% of nodes >= 5 blocks behind.
	tr := runTrace(t, TraceConfig{Duration: 72 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 3})
	syncedDominant := 0
	staleFloorOK := 0
	for _, s := range tr.Samples {
		if s.Buckets[0]+s.Buckets[1] >= s.UpNodes/2 {
			syncedDominant++
		}
		if s.Buckets[3]+s.Buckets[4] >= s.UpNodes/20 {
			staleFloorOK++
		}
	}
	n := len(tr.Samples)
	if syncedDominant < n*6/10 {
		t.Errorf("synced-dominant samples = %d of %d, want >= 60%%", syncedDominant, n)
	}
	if staleFloorOK < n*9/10 {
		t.Errorf("stale floor present in %d of %d samples", staleFloorOK, n)
	}
}

func TestTraceSpikesReachDeepLag(t *testing.T) {
	// Figure 6(b): spikes where most of the network lags. With episodes
	// enabled, some sample should see >= 50% of nodes behind.
	tr := runTrace(t, TraceConfig{Duration: 96 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 5})
	peak := 0.0
	for _, s := range tr.Samples {
		behind := s.UpNodes - s.Buckets[0]
		if f := float64(behind) / float64(s.UpNodes); f > peak {
			peak = f
		}
	}
	if peak < 0.5 {
		t.Errorf("peak behind fraction = %v, want >= 0.5 (paper sees up to ~90%%)", peak)
	}
}

func TestMaxVulnerableShape(t *testing.T) {
	// Table V's qualitative shape: counts decrease with the timing window,
	// a large max at T=5min (paper: 62.67% >= 1 block), and a stale floor
	// at T=200min (paper: ~9%).
	tr := runTrace(t, TraceConfig{Duration: 7 * 24 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 7})
	rows, err := tr.MaxVulnerableParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		for ti := 0; ti < 3; ti++ {
			if rows[i].Max[ti] > rows[i-1].Max[ti] {
				t.Errorf("row %d threshold %d: max not non-increasing (%d > %d)",
					i, ti, rows[i].Max[ti], rows[i-1].Max[ti])
			}
		}
	}
	// T=5min, >=1 block: a large fraction of the network.
	if rows[0].Frac[0] < 0.35 {
		t.Errorf("T=5min >=1 block fraction = %v, want >= 0.35 (paper 0.6267)", rows[0].Frac[0])
	}
	// T=200min: only stale nodes remain, ~10%.
	if rows[8].Frac[0] < 0.04 || rows[8].Frac[0] > 0.20 {
		t.Errorf("T=200min fraction = %v, want ~0.09", rows[8].Frac[0])
	}
	// The >=5-block column at long windows approaches the stale floor too.
	if rows[8].Max[2] == 0 {
		t.Error("no deeply lagged vulnerable nodes at T=200min")
	}
}

func TestPerMinuteConsensusPruning(t *testing.T) {
	// Figure 6(c): 1-minute sampling. Right after blocks, many nodes are
	// behind; between blocks the network heals. Expect the behind-fraction
	// to vary substantially across per-minute samples.
	tr := runTrace(t, TraceConfig{Duration: 3 * time.Hour, SampleEvery: time.Minute, Seed: 11})
	lo, hi := 1.0, 0.0
	for _, s := range tr.Samples {
		f := float64(s.UpNodes-s.Buckets[0]) / float64(s.UpNodes)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 0.2 {
		t.Errorf("behind-fraction range [%v, %v] too narrow for per-minute pruning", lo, hi)
	}
}

func TestTopSyncedASes(t *testing.T) {
	tr := runTrace(t, TraceConfig{
		Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 13,
		TrackSyncedByAS: true,
	})
	rows, err := tr.TopSyncedASes(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Counts must be descending and fractions sane.
	var topFrac float64
	for i, r := range rows {
		if i > 0 && r.Nodes > rows[i-1].Nodes {
			t.Error("rows not sorted by synced count")
		}
		topFrac += r.Fraction
	}
	// Paper: top-5 ASes hosted ~28% of synced nodes.
	if topFrac < 0.15 || topFrac > 0.45 {
		t.Errorf("top-5 synced share = %v, want ~0.28", topFrac)
	}
	// The largest AS (Hetzner, 1030 nodes) should appear in the top 5 of
	// synced hosting.
	found := false
	for _, r := range rows {
		if r.ASN == 24940 {
			found = true
		}
	}
	if !found {
		t.Error("AS24940 missing from top-5 synced ASes")
	}
}

func TestTopSyncedASesRequiresTracking(t *testing.T) {
	tr := runTrace(t, TraceConfig{Duration: time.Hour, SampleEvery: 10 * time.Minute, Seed: 1})
	if _, err := tr.TopSyncedASes(5); err == nil {
		t.Error("expected error without TrackSyncedByAS")
	}
}

func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{Duration: 12 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 21}
	a := runTrace(t, cfg)
	b := runTrace(t, cfg)
	if a.Blocks != b.Blocks || len(a.Samples) != len(b.Samples) {
		t.Fatal("trace shape differs between identical seeds")
	}
	for i := range a.Samples {
		if a.Samples[i].Buckets != b.Samples[i].Buckets {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
}
