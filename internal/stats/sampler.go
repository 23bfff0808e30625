package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// NewRand returns a deterministic random source for the given seed. Every
// experiment in this repository threads one of these explicitly instead of
// using the global source, so that all tables and figures regenerate
// byte-identically from their default seeds.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Exponential samples an exponential random variable with rate lambda
// (mean 1/lambda). The paper models both peer-connection timing and
// diffusion-spreading relay delays as i.i.d. exponentials (§V-B, citing
// Fanti & Viswanath); block inter-arrival times are exponential with rate
// hashShare/blockInterval.
func Exponential(r *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	return r.ExpFloat64() / lambda
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}

// ZipfWeights returns n weights following a Zipf law with exponent s,
// normalized to sum to 1. Node populations per AS and per BGP prefix are
// heavy-tailed (Figure 3 and Figure 4 of the paper both show a small head
// covering most of the mass), and a Zipf tail is the standard generative
// model for that shape.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// Multinomial distributes total items across the given weights, assigning
// the integer part deterministically and the remainder by largest fractional
// part, so that the result sums exactly to total and is reproducible without
// randomness. Weights must be finite and non-negative, with a positive sum
// small enough that total times it is finite.
func Multinomial(total int, weights []float64) ([]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("stats: negative total %d", total)
	}
	var wsum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("stats: weight %d is %v", i, w)
		}
		wsum += w
	}
	// total·w is at most total·wsum, so when that is finite no product
	// below overflows.
	if math.IsInf(wsum, 0) || math.IsInf(float64(total)*wsum, 0) {
		return nil, fmt.Errorf("stats: %d items over weights summing to %v overflow", total, wsum)
	}
	if len(weights) == 0 || wsum <= 0 {
		return nil, fmt.Errorf("stats: weights must be non-empty with positive sum")
	}
	counts := make([]int, len(weights))
	type frac struct {
		idx  int
		part float64
	}
	fracs := make([]frac, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / wsum
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		fracs[i] = frac{idx: i, part: exact - math.Floor(exact)}
	}
	// Hand out the remainder to the largest fractional parts, ties to the
	// lower index: one stable sort by part, descending, then one unit to
	// each of the first rem. Should rounding leave more units than weights,
	// the surplus goes to index 0.
	rem := total - assigned
	if rem <= 0 {
		return counts, nil
	}
	slices.SortStableFunc(fracs, func(a, b frac) int { return cmp.Compare(b.part, a.part) })
	for _, f := range fracs[:min(rem, len(fracs))] {
		counts[f.idx]++
	}
	if rem > len(fracs) {
		counts[0] += rem - len(fracs)
	}
	return counts, nil
}

// WeightedIndex samples an index proportionally to weights. Weights must be
// non-negative with a positive sum; otherwise -1 is returned.
func WeightedIndex(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// LogNormalFromMoments samples a log-normal variate whose mean and standard
// deviation (of the variate itself, not of its log) match the given moments.
// Table I's link speeds have σ ≈ 10× μ, a signature of log-normal-like
// heavy tails, so the dataset generator uses this to reproduce both moments.
func LogNormalFromMoments(r *rand.Rand, mean, std float64) float64 {
	if mean <= 0 {
		return 0
	}
	v := std * std
	m2 := mean * mean
	sigma2 := math.Log(1 + v/m2)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(r.NormFloat64()*math.Sqrt(sigma2) + mu)
}
