// Package stats provides the numeric plumbing shared by every other package
// in this repository: deterministic random sources, descriptive statistics,
// empirical distributions, samplers for the stochastic processes the paper
// models (exponential diffusion delays, Poisson block arrivals, heavy-tailed
// AS populations), and small numeric utilities (log-binomial coefficients,
// monotone bisection) used by the temporal-attack timing bound.
//
// All functions are pure or operate on explicit *rand.Rand sources so that
// experiments are reproducible from a seed.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics reported in the paper's tables
// (e.g. Table I reports mean and standard deviation of link speed and of the
// latency and uptime indices).
type Summary struct {
	Count  int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
// The standard deviation is the population standard deviation, matching how
// the paper reports σ over a full network snapshot rather than a sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns an error if xs is empty or
// p is out of range.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; ROADMAP item 2's spread quantiles may give it a study, and it goes if they do not
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// LogChoose returns ln(C(n, k)), the natural log of the binomial
// coefficient. It is used by the temporal-attack union bound (Eq. 5 of the
// paper), where C(T, m) overflows any integer type for realistic T.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	lgN, _ := math.Lgamma(float64(n) + 1)
	lgK, _ := math.Lgamma(float64(k) + 1)
	lgNK, _ := math.Lgamma(float64(n-k) + 1)
	return lgN - lgK - lgNK
}

// BisectMinInt returns the smallest integer x in [lo, hi] for which pred(x)
// is true, assuming pred is monotone (false…false true…true). It returns
// hi+1 if pred is false on the whole interval. The paper uses this to invert
// the monotone bound b(m, T) in T (Table VI).
func BisectMinInt(lo, hi int, pred func(int) bool) int {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == hi && pred(lo) {
		return lo
	}
	return hi + 1
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// normal-approximation confidence interval (1.96 · s/√n, with the unbiased
// sample standard deviation). Monte-Carlo ensembles report their headline
// rates as mean ± half. Fewer than two samples yield a zero half-width.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, 1.96 * math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
}
