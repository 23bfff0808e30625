package stats

import (
	"fmt"
	"sort"
)

// CDFPoint is a single (x, F(x)) point of an empirical cumulative
// distribution. Figures 3 and 4 of the paper are curves of this kind: the
// cumulative fraction of full nodes covered by the k largest ASes,
// organizations, or BGP prefixes.
type CDFPoint struct {
	X float64 // rank or value on the horizontal axis
	F float64 // cumulative fraction in [0, 1]
}

// CDF is a non-decreasing empirical cumulative distribution.
type CDF struct {
	points []CDFPoint
}

// CumulativeFromCounts builds the rank-based CDF the paper plots in Figure 3:
// counts are per-group populations (e.g. nodes per AS); the groups are sorted
// in descending order and point k is (k, fraction of the total covered by the
// k largest groups). The returned CDF has len(counts) points and reaches 1.0
// at the final point when total > 0.
func CumulativeFromCounts(counts []int) CDF {
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var total int
	for _, c := range sorted {
		total += c
	}
	points := make([]CDFPoint, 0, len(sorted))
	var running int
	for i, c := range sorted {
		running += c
		f := 0.0
		if total > 0 {
			f = float64(running) / float64(total)
		}
		points = append(points, CDFPoint{X: float64(i + 1), F: f})
	}
	return CDF{points: points}
}

// Points returns a copy of the CDF's points in ascending X order.
func (c CDF) Points() []CDFPoint {
	return append([]CDFPoint(nil), c.points...)
}

// At returns F evaluated at x by step interpolation: the fraction covered by
// the largest floor(x) groups. For x below the first point it returns 0.
func (c CDF) At(x float64) float64 {
	// Points are sorted by X; find the last point with X <= x.
	idx := sort.Search(len(c.points), func(i int) bool { return c.points[i].X > x })
	if idx == 0 {
		return 0
	}
	return c.points[idx-1].F
}

// RankFor returns the smallest rank k such that the k largest groups cover at
// least fraction f of the total. It returns an error if f is unreachable
// (f > 1 or the CDF is empty and f > 0).
//
// This is the query behind the paper's headline centralization numbers:
// "8 ASes host 30% of Bitcoin nodes" is RankFor(0.30) on the AS CDF.
func (c CDF) RankFor(f float64) (int, error) {
	if f <= 0 {
		return 0, nil
	}
	for _, p := range c.points {
		if p.F >= f-1e-12 {
			return int(p.X), nil
		}
	}
	return 0, fmt.Errorf("stats: fraction %.4f not reachable by CDF with %d points", f, len(c.points))
}

// Validate checks the CDF invariants: X strictly increasing and F
// non-decreasing within [0, 1+ε]. It is used by property tests.
//
//lint:ignore unusedexport invariant checker the CDF, calibration and centralization tests assert against
func (c CDF) Validate() error {
	for i, p := range c.points {
		if p.F < -1e-12 || p.F > 1+1e-9 {
			return fmt.Errorf("stats: point %d has F=%v outside [0,1]", i, p.F)
		}
		if i > 0 {
			if p.X <= c.points[i-1].X {
				return fmt.Errorf("stats: X not strictly increasing at point %d", i)
			}
			if p.F < c.points[i-1].F-1e-12 {
				return fmt.Errorf("stats: F decreasing at point %d", i)
			}
		}
	}
	return nil
}
