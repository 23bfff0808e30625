package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{
			name: "empty",
			xs:   nil,
			want: Summary{},
		},
		{
			name: "single",
			xs:   []float64{5},
			want: Summary{Count: 1, Mean: 5, Std: 0, Min: 5, Max: 5, Median: 5},
		},
		{
			name: "symmetric",
			xs:   []float64{1, 2, 3, 4, 5},
			want: Summary{Count: 5, Mean: 3, Std: math.Sqrt(2), Min: 1, Max: 5, Median: 3},
		},
		{
			name: "even count median interpolates",
			xs:   []float64{1, 2, 3, 4},
			want: Summary{Count: 4, Mean: 2.5, Std: math.Sqrt(1.25), Min: 1, Max: 4, Median: 2.5},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.xs)
			if got.Count != tt.want.Count {
				t.Errorf("Count = %d, want %d", got.Count, tt.want.Count)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"Mean", got.Mean, tt.want.Mean},
				{"Std", got.Std, tt.want.Std},
				{"Min", got.Min, tt.want.Min},
				{"Max", got.Max, tt.want.Max},
				{"Median", got.Median, tt.want.Median},
			} {
				if math.Abs(f.got-f.want) > 1e-9 {
					t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{25, 20},
		{50, 30},
		{100, 50},
		{12.5, 15},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty slice: want error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile out of range: want error")
	}
}

func TestLogChoose(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 0, 0},
		{5, 5, 0},
		{5, 2, math.Log(10)},
		{10, 3, math.Log(120)},
		{52, 5, math.Log(2598960)},
	}
	for _, tt := range tests {
		got := LogChoose(tt.n, tt.k)
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
	if !math.IsInf(LogChoose(3, 5), -1) {
		t.Error("LogChoose(3,5) should be -Inf")
	}
	if !math.IsInf(LogChoose(3, -1), -1) {
		t.Error("LogChoose(3,-1) should be -Inf")
	}
}

func TestLogChooseSymmetry(t *testing.T) {
	// Property: C(n,k) == C(n,n-k).
	f := func(n, k uint8) bool {
		nn := int(n%60) + 1
		kk := int(k) % (nn + 1)
		return math.Abs(LogChoose(nn, kk)-LogChoose(nn, nn-kk)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisectMinInt(t *testing.T) {
	tests := []struct {
		name      string
		lo, hi    int
		threshold int
		want      int
	}{
		{"mid", 0, 100, 37, 37},
		{"at lo", 0, 100, 0, 0},
		{"at hi", 0, 100, 100, 100},
		{"never true", 0, 100, 101, 101},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := BisectMinInt(tt.lo, tt.hi, func(x int) bool { return x >= tt.threshold })
			if got != tt.want {
				t.Errorf("BisectMinInt = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestBisectMinIntProperty(t *testing.T) {
	// Property: for any monotone predicate defined by a threshold, bisection
	// finds exactly the threshold (clamped to the search interval).
	f := func(th uint16) bool {
		threshold := int(th % 1000)
		got := BisectMinInt(0, 999, func(x int) bool { return x >= threshold })
		return got == threshold
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
