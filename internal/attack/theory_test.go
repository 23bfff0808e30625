package attack

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLogIsolationBoundEdgeCases(t *testing.T) {
	if !math.IsInf(LogIsolationBound(0, 0.5, 100), -1) {
		t.Error("m=0 should be -Inf")
	}
	if !math.IsInf(LogIsolationBound(10, 0.5, 5), -1) {
		t.Error("T<m should be -Inf")
	}
	if !math.IsInf(LogIsolationBound(10, 0, 100), -1) {
		t.Error("lambda=0 should be -Inf")
	}
}

func TestIsolationBoundMonotoneInT(t *testing.T) {
	prev := math.Inf(-1)
	for T := 100; T <= 2000; T += 50 {
		b := LogIsolationBound(100, 0.5, T)
		if b < prev-1e-12 {
			t.Fatalf("bound not monotone at T=%d: %v < %v", T, b, prev)
		}
		prev = b
	}
}

func TestMinTimingConstraintValidation(t *testing.T) {
	tests := []struct {
		m       int
		lambda  float64
		targetP float64
	}{
		{0, 0.5, 0.8},
		{10, 0, 0.8},
		{10, 0.5, 0},
		{10, 0.5, 1.5},
	}
	for _, tt := range tests {
		if _, err := MinTimingConstraint(tt.m, tt.lambda, tt.targetP); err == nil {
			t.Errorf("MinTimingConstraint(%d, %v, %v): want error", tt.m, tt.lambda, tt.targetP)
		}
	}
}

func TestTableVIReproduction(t *testing.T) {
	// The paper's Table VI cells (seconds) for p = 0.8. Our bisection should
	// land within 20% of each published value — the bound is analytic, so
	// deviations reflect only the paper's rounding and any discretization.
	want := map[[2]int]int{ // key: {lambda*10, m}
		{4, 100}:  142,
		{4, 300}:  424,
		{4, 500}:  705,
		{5, 500}:  661,
		{6, 500}:  630,
		{7, 500}:  607,
		{8, 100}:  119,
		{8, 500}:  589,
		{8, 1000}: 1177,
		{9, 100}:  116,
		{9, 500}:  575,
		{9, 1500}: 1723,
	}
	for key, wantT := range want {
		lambda := float64(key[0]) / 10
		m := key[1]
		got, err := MinTimingConstraint(m, lambda, 0.8)
		if err != nil {
			t.Fatalf("m=%d lambda=%v: %v", m, lambda, err)
		}
		rel := math.Abs(float64(got-wantT)) / float64(wantT)
		if rel > 0.20 {
			t.Errorf("m=%d lambda=%v: T=%d, paper %d (off %.0f%%)", m, lambda, got, wantT, rel*100)
		}
	}
}

func TestTimingTableShape(t *testing.T) {
	lambdas, ms := PaperTimingGrid()
	table, err := ComputeTimingTable(lambdas, ms, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: higher lambda (faster connections) needs less time.
	for j := range ms {
		for i := 1; i < len(lambdas); i++ {
			if table.Seconds[i][j] > table.Seconds[i-1][j] {
				t.Errorf("column m=%d not decreasing in lambda", ms[j])
			}
		}
	}
	// Columns: more victims need more time.
	for i := range lambdas {
		for j := 1; j < len(ms); j++ {
			if table.Seconds[i][j] < table.Seconds[i][j-1] {
				t.Errorf("row lambda=%v not increasing in m", lambdas[i])
			}
		}
	}
}

func TestComputeTimingTableEmptyGrid(t *testing.T) {
	if _, err := ComputeTimingTable(nil, []int{1}, 0.8); err == nil {
		t.Error("empty lambda grid accepted")
	}
	if _, err := ComputeTimingTable([]float64{0.5}, nil, 0.8); err == nil {
		t.Error("empty m grid accepted")
	}
}

func TestMinTimingConstraintIsMinimal(t *testing.T) {
	// Property: the returned T satisfies the bound and T-1 does not.
	f := func(mRaw, lRaw uint8) bool {
		m := 50 + int(mRaw)%400
		lambda := 0.3 + float64(lRaw%7)/10
		T, err := MinTimingConstraint(m, lambda, 0.8)
		if err != nil {
			return false
		}
		logTarget := math.Log(0.8)
		if LogIsolationBound(m, lambda, T) < logTarget {
			return false
		}
		return LogIsolationBound(m, lambda, T-1) < logTarget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnreachableTarget(t *testing.T) {
	// With absurdly small lambda the probability never reaches the target
	// within the horizon for large m... in fact the union bound grows with
	// C(T,m), so reachability is generic; verify the error path with an m
	// too large for the horizon instead.
	_, err := MinTimingConstraint(1<<23, 0.5, 0.8)
	if !errors.Is(err, ErrUnreachableTarget) {
		t.Errorf("err = %v, want ErrUnreachableTarget", err)
	}
}

func TestConnectionCDF(t *testing.T) {
	if ConnectionCDF(0.5, 0) != 0 {
		t.Error("F(0) != 0")
	}
	if got := ConnectionCDF(0.5, math.Inf(1)); math.Abs(got-1) > 1e-12 {
		t.Errorf("F(inf) = %v", got)
	}
	mid := ConnectionCDF(1, math.Ln2)
	if math.Abs(mid-0.5) > 1e-12 {
		t.Errorf("F(ln2; lambda=1) = %v, want 0.5", mid)
	}
}

func TestIsolationProbability(t *testing.T) {
	// Single node, generous time: near 1. Many nodes, tight times: small.
	one := IsolationProbability(1, []float64{10})
	if one < 0.99 {
		t.Errorf("single-node isolation = %v", one)
	}
	many := IsolationProbability(1, []float64{0.1, 0.1, 0.1, 0.1})
	if many > 0.001 {
		t.Errorf("tight-times isolation = %v, want tiny", many)
	}
	if IsolationProbability(1, nil) != 1 {
		t.Error("empty assignment should be probability 1")
	}
}

func TestCauchyBoundDominatesExact(t *testing.T) {
	// Property (Eq. 2-4): for any concrete assignment with sum <= T, the
	// exact product never exceeds (1-e^{-lambda*T/m})^m.
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		lambda := 0.7
		times := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			times[i] = float64(r%100) + 1
			sum += times[i]
		}
		m := len(times)
		exact := IsolationProbability(lambda, times)
		bound := math.Pow(1-math.Exp(-lambda*sum/float64(m)), float64(m))
		return exact <= bound+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
