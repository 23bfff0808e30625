package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// quoted: with fewer, the value is decided by a handful of outliers.
const minBeyond = 10

// percentileRank is the 1-based nearest-rank index of percentile p (0 < p
// < 1) among n samples.
func percentileRank(n int, p float64) int {
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quotable reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func quotable(n int, p float64) bool {
	return n > 0 && n-percentileRank(n, p) >= minBeyond
}

// percentile returns the nearest-rank percentile p of samples and whether
// it may be quoted. samples is not modified.
func percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[percentileRank(len(s), p)-1], quotable(len(s), p)
}

// median is the middle sample (mean of the two middle ones for even n).
// It is used for repeated measurements of one quantity, not for latency
// distributions, which use percentile.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration is median over durations, in the durations' unit.
func medianDuration(ds []time.Duration) time.Duration {
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencySummary is a latency distribution as the report quotes it: the
// sample count, the median, and the 99th percentile, each percentile
// present only when quotable.
type latencySummary struct {
	N     int      `json:"n"`
	P50Ms *float64 `json:"p50_ms"`
	P99Ms *float64 `json:"p99_ms"`
}

func summarize(samples []float64) latencySummary {
	out := latencySummary{N: len(samples)}
	if v, ok := percentile(samples, 0.50); ok {
		out.P50Ms = &v
	}
	if v, ok := percentile(samples, 0.99); ok {
		out.P99Ms = &v
	}
	return out
}
