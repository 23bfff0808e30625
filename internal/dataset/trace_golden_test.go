package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"
	"time"
)

// traceDigest hashes every field RunTrace produces: Blocks, then per sample
// T, Buckets, UpNodes, Vulnerable, the per-AS synced counts and
// EpisodeActive. The per-AS counts hash as the (ASN, count) pairs with a
// count above zero, sorted by ASN, or -1 for an untracked trace, so the
// digest does not depend on the rows' slot order.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(tr.Blocks))
	put(int64(len(tr.Samples)))
	for _, s := range tr.Samples {
		put(int64(s.T))
		for _, b := range s.Buckets {
			put(int64(b))
		}
		put(int64(s.UpNodes))
		put(int64(len(s.Vulnerable)))
		for _, row := range s.Vulnerable {
			for _, v := range row {
				put(int64(v))
			}
		}
		if s.ASSynced == nil {
			put(-1)
		} else {
			var pairs [][2]int64
			for k, c := range s.ASSynced {
				if c > 0 {
					pairs = append(pairs, [2]int64{int64(tr.ASNs[k]), int64(c)})
				}
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
			put(int64(len(pairs)))
			for _, p := range pairs {
				put(p[0])
				put(p[1])
			}
		}
		if s.EpisodeActive {
			put(1)
		} else {
			put(0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceGolden pins the lag trace bit for bit on population seed 1: the
// six trace configs a default study runs (core's per-experiment salts with
// seed 1, so Seed = 1*1000003 + salt), the 60-day Table V trace of a full
// study, and an episode-heavy tracked config. Any change to the draw order,
// the catch-up arithmetic or the sample bookkeeping shows up here. Every
// config scans Table V's windows, which the digests were first taken with,
// so the window fold is pinned on all eight traces.
func TestTraceGolden(t *testing.T) {
	const day = 24 * time.Hour
	studySeed := func(salt int64) int64 { return 1000003 + salt }
	w := DefaultVulnerabilityWindows()
	cases := []struct {
		name string
		cfg  TraceConfig
		want string
	}{
		{"table5", TraceConfig{Duration: 3 * day, SampleEvery: 10 * time.Minute, Seed: studySeed(5), VulnerabilityWindows: w},
			"82968bcbc266df4f31921fb87ac502ef907bbc807573f358a4c9d37d4fda25fb"},
		{"table7", TraceConfig{Duration: day, SampleEvery: 10 * time.Minute, Seed: studySeed(7), TrackSyncedByAS: true, VulnerabilityWindows: w},
			"793d992553382bd7e04385837ca32386e8334a8e29ce643e4b0c23da0122c2cd"},
		{"figure6a", TraceConfig{Duration: 3 * day, SampleEvery: 10 * time.Minute, Seed: studySeed(61), VulnerabilityWindows: w},
			"2c48fe1e8de07a7e26ac0161182432085cc3c0999a97d7c467e6160e89010519"},
		{"figure6b", TraceConfig{Duration: day, SampleEvery: 10 * time.Minute, Seed: studySeed(62), VulnerabilityWindows: w},
			"dcb3ea511631f18e8ebde17a6de634dc7c89f7873ae9870ca3b4d7ba4e4cf211"},
		{"figure6c", TraceConfig{Duration: 3 * time.Hour, SampleEvery: time.Minute, Seed: studySeed(63), VulnerabilityWindows: w},
			"6bcbdcbf604df91142657d4f1d28091c9beef2f762e2ba8fbada4002487e899a"},
		{"figure8", TraceConfig{Duration: day, SampleEvery: 10 * time.Minute, Seed: studySeed(8), TrackSyncedByAS: true, VulnerabilityWindows: w},
			"b2573d0bd4e089d0675205a2536a248ccb044a88a2596169c1076df5a9be8e54"},
		{"table5_d60", TraceConfig{Duration: 60 * day, SampleEvery: 10 * time.Minute, Seed: studySeed(5), VulnerabilityWindows: w},
			"064110d866de1e39e8cb77b0a9024f82adeb92c5f732974335436482121973a0"},
		{"episodes20", TraceConfig{Duration: 2 * day, SampleEvery: 10 * time.Minute, Seed: 20, EpisodesPerDay: 20, TrackSyncedByAS: true, VulnerabilityWindows: w},
			"6480eb06b1e9cd09337ba415a6c4a6d406e8da1164f47f3e70c96fa76dc45e40"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := traceDigest(runTrace(t, c.cfg)); got != c.want {
				t.Errorf("trace digest = %s, want %s", got, c.want)
			}
		})
	}
}
