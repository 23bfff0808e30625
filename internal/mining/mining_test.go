package mining

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// paperPools mirrors Table IV of the paper: the top five pools by hash rate
// and the ASes hosting their stratum servers.
func paperPools(t *testing.T) *PoolSet {
	t.Helper()
	set, err := NewPoolSet([]Pool{
		{Name: "BTC.com", HashShare: 0.25, StratumASes: []topology.ASN{37963, 45102}, StratumOrg: "AliBaba"},
		{Name: "Antpool", HashShare: 0.124, StratumASes: []topology.ASN{45102}, StratumOrg: "AliBaba"},
		{Name: "ViaBTC", HashShare: 0.117, StratumASes: []topology.ASN{45102}, StratumOrg: "AliBaba"},
		{Name: "BTC.TOP", HashShare: 0.103, StratumASes: []topology.ASN{45102}, StratumOrg: "AliBaba"},
		{Name: "F2Pool", HashShare: 0.063, StratumASes: []topology.ASN{45102, 58563}, StratumOrg: "AliBaba"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestNewPoolSetValidation(t *testing.T) {
	tests := []struct {
		name    string
		pools   []Pool
		wantErr bool
	}{
		{"valid", []Pool{{Name: "a", HashShare: 0.5}, {Name: "b", HashShare: 0.5}}, false},
		{"empty", nil, false},
		{"negative share", []Pool{{HashShare: -0.1}}, true},
		{"share above one", []Pool{{HashShare: 1.1}}, true},
		{"sum above one", []Pool{{HashShare: 0.6}, {HashShare: 0.6}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPoolSet(tt.pools)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadShare) {
				t.Errorf("err = %v, want ErrBadShare", err)
			}
		})
	}
}

func TestShareBehindASes(t *testing.T) {
	set := paperPools(t)
	// Hijacking the three ASes of Table IV isolates 65.7% of hash rate.
	three := map[topology.ASN]bool{37963: true, 45102: true, 58563: true}
	got := set.ShareBehindASes(three)
	if math.Abs(got-0.657) > 1e-9 {
		t.Errorf("share behind 3 ASes = %v, want 0.657", got)
	}
	// AS45102 alone isolates Antpool, ViaBTC, BTC.TOP = 34.4%; BTC.com and
	// F2Pool have a second stratum AS outside the set.
	one := map[topology.ASN]bool{45102: true}
	got = set.ShareBehindASes(one)
	if math.Abs(got-0.344) > 1e-9 {
		t.Errorf("share behind AS45102 = %v, want 0.344", got)
	}
	if set.ShareBehindASes(nil) != 0 {
		t.Error("empty AS set should isolate nothing")
	}
}

func TestShareBehindOrg(t *testing.T) {
	set := paperPools(t)
	got := set.ShareBehindOrg("AliBaba")
	if math.Abs(got-0.657) > 1e-9 {
		t.Errorf("AliBaba org share = %v, want 0.657 (>60%% per the paper)", got)
	}
	if set.ShareBehindOrg("nobody") != 0 {
		t.Error("unknown org should have zero share")
	}
}

func TestTotalShare(t *testing.T) {
	set := paperPools(t)
	if got := set.TotalShare(); math.Abs(got-0.657) > 1e-9 {
		t.Errorf("TotalShare = %v, want 0.657", got)
	}
}

func TestPickWinnerProportional(t *testing.T) {
	set := paperPools(t)
	rng := stats.NewRand(99)
	counts := make(map[string]int)
	const n = 200000
	for i := 0; i < n; i++ {
		idx := set.PickWinner(rng, nil)
		if idx < 0 {
			t.Fatal("no winner")
		}
		counts[set.pools[idx].Name]++
	}
	// BTC.com should win ~25/65.7 of the time among the five pools.
	wantFrac := 0.25 / 0.657
	gotFrac := float64(counts["BTC.com"]) / n
	if math.Abs(gotFrac-wantFrac) > 0.01 {
		t.Errorf("BTC.com win rate = %v, want ~%v", gotFrac, wantFrac)
	}
}

func TestPickWinnerRespectsActiveFilter(t *testing.T) {
	set := paperPools(t)
	rng := stats.NewRand(7)
	// Disconnect everything except F2Pool.
	for i := 0; i < 1000; i++ {
		idx := set.PickWinner(rng, func(p Pool) bool { return p.Name == "F2Pool" })
		if idx < 0 || set.pools[idx].Name != "F2Pool" {
			t.Fatalf("winner = %d, want F2Pool only", idx)
		}
	}
	// All filtered out: no winner.
	if idx := set.PickWinner(rng, func(Pool) bool { return false }); idx != -1 {
		t.Errorf("winner with empty active set = %d, want -1", idx)
	}
}
