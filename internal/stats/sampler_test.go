package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestExponentialMoments(t *testing.T) {
	r := NewRand(1)
	const n = 200000
	const lambda = 0.7
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(r, lambda)
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.02 {
		t.Errorf("exponential mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestExponentialNonPositiveRate(t *testing.T) {
	r := NewRand(1)
	if !math.IsInf(Exponential(r, 0), 1) {
		t.Error("Exponential with rate 0 should be +Inf")
	}
	if !math.IsInf(Exponential(r, -1), 1) {
		t.Error("Exponential with negative rate should be +Inf")
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.2)
	if len(w) != 100 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Fatalf("weights not non-increasing at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	if ZipfWeights(0, 1) != nil {
		t.Error("ZipfWeights(0) should be nil")
	}
}

func TestMultinomial(t *testing.T) {
	tests := []struct {
		name    string
		total   int
		weights []float64
		want    []int // nil means only check sum
		wantErr bool
	}{
		{"exact split", 10, []float64{0.5, 0.5}, []int{5, 5}, false},
		{"remainder to largest frac", 10, []float64{0.55, 0.45}, []int{6, 4}, false},
		{"zero total", 0, []float64{1, 2}, []int{0, 0}, false},
		{"negative total", -1, []float64{1}, nil, true},
		{"empty weights", 5, nil, nil, true},
		{"zero weights", 5, []float64{0, 0}, nil, true},
		{"negative weight", 5, []float64{1, -1}, nil, true},
		{"nan weight", 5, []float64{1, math.NaN()}, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Multinomial(tt.total, tt.weights)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			var sum int
			for _, c := range got {
				sum += c
			}
			if sum != tt.total {
				t.Errorf("sum = %d, want %d", sum, tt.total)
			}
			if tt.want != nil {
				for i := range tt.want {
					if got[i] != tt.want[i] {
						t.Errorf("counts = %v, want %v", got, tt.want)
						break
					}
				}
			}
		})
	}
}

func TestMultinomialPropertySumsExactly(t *testing.T) {
	// Property: the assignment always sums to total and no count is negative.
	f := func(total uint16, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var wsum float64
		for i, x := range raw {
			weights[i] = float64(x)
			wsum += weights[i]
		}
		if wsum == 0 {
			return true
		}
		tot := int(total % 10000)
		counts, err := Multinomial(tot, weights)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == tot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMultinomialRejectsNonFinite is the regression test for infinite
// input: an infinite weight used to come back as a count of math.MinInt64
// with a nil error, and two math.MaxFloat64 weights, whose sum overflows,
// as negative counts. Weights whose sum is finite but overflows once
// multiplied by total are refused too.
func TestMultinomialRejectsNonFinite(t *testing.T) {
	for _, w := range [][]float64{
		{1, math.Inf(1), 2},
		{math.Inf(-1)},
		{math.MaxFloat64, math.MaxFloat64},
		{math.MaxFloat64, 0},
		{math.MaxFloat64 / 2, math.MaxFloat64 / 2},
	} {
		if got, err := Multinomial(10, w); err == nil {
			t.Errorf("Multinomial(10, %v) = %v, want an error", w, got)
		}
	}
}

// multinomialOracle is the remainder hand-out Multinomial used before its
// sort: one scan of every fraction per leftover unit, O(rem·n), picking
// the first strict maximum. Inputs are assumed valid.
func multinomialOracle(total int, weights []float64) []int {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	counts := make([]int, len(weights))
	parts := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / wsum
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		parts[i] = exact - math.Floor(exact)
	}
	for rem := total - assigned; rem > 0; rem-- {
		best := -1
		for i := range parts {
			if best == -1 || parts[i] > parts[best] {
				best = i
			}
		}
		counts[best]++
		parts[best] = -1
	}
	return counts
}

// TestMultinomialMatchesOracle compares the sort-based remainder with the
// quadratic scan it replaced, on random weights drawn to make ties common:
// small integer weights (exact ties in the fractional parts), zeros, a
// single weight, Zipf vectors like the generator's, and total = 0.
func TestMultinomialMatchesOracle(t *testing.T) {
	r := NewRand(19)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(40)
		weights := make([]float64, n)
		switch trial % 3 {
		case 0: // small integers: many equal fractions, some zero weights
			for i := range weights {
				weights[i] = float64(r.Intn(4))
			}
		case 1: // continuous, with a zero now and then
			for i := range weights {
				if r.Intn(5) > 0 {
					weights[i] = r.Float64()
				}
			}
		default:
			weights = ZipfWeights(n, 0.5+r.Float64())
		}
		weights[r.Intn(n)] += 1 // a positive sum
		total := r.Intn(200)
		if trial%50 == 0 {
			total = 0
		}
		got, err := Multinomial(total, weights)
		if err != nil {
			t.Fatalf("Multinomial(%d, %v): %v", total, weights, err)
		}
		if want := multinomialOracle(total, weights); !slices.Equal(got, want) {
			t.Fatalf("Multinomial(%d, %v) = %v, oracle %v", total, weights, got, want)
		}
	}
}

func TestWeightedIndex(t *testing.T) {
	r := NewRand(3)
	weights := []float64{0, 1, 3}
	counts := make([]int, len(weights))
	const n = 90000
	for i := 0; i < n; i++ {
		idx := WeightedIndex(r, weights)
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	if WeightedIndex(r, nil) != -1 {
		t.Error("empty weights should return -1")
	}
	if WeightedIndex(r, []float64{0, 0}) != -1 {
		t.Error("all-zero weights should return -1")
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	r := NewRand(9)
	const mean, std = 25.0, 250.0 // Table I IPv4 link-speed moments
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		x := LogNormalFromMoments(r, mean, std)
		if x < 0 {
			t.Fatalf("negative sample %v", x)
		}
		sum += x
	}
	got := sum / n
	// Heavy tail: the sample mean converges slowly; allow 20%.
	if got < mean*0.8 || got > mean*1.25 {
		t.Errorf("log-normal sample mean = %v, want ~%v", got, mean)
	}
	if LogNormalFromMoments(r, 0, 1) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}
