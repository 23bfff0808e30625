// Package attack implements the paper's four partitioning attacks —
// spatial (§V-A), temporal (§V-B), spatio-temporal (§V-C), and logical
// (§V-D) — as planners and executors over the dataset, topology, mining,
// and network-simulation substrates, plus the theoretical timing model of
// the temporal attack (Equations 1-5, Table VI).
package attack

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Temporal-attack timing model (§V-B). The attacker must connect to and
// feed m vulnerable nodes; each connection completes after an independent
// exponential delay with rate λ (diffusion spreading, Eq. 1). For a timing
// assignment T = (t1..tm) with Σti ≤ T, the isolation probability is
// bounded via the Cauchy inequality (Eq. 2-4) by (1-e^{-λT/m})^m, and over
// the C(T, m) possible assignments the union bound (Eq. 5) gives
//
//	p ≤ b(m, T) = C(T, m) · (1 - e^{-λT/m})^m
//
// which is monotone in T, so the minimum timing constraint for a target
// success probability follows by bisection.

// LogIsolationBound returns ln b(m, T) for a timing constraint of T seconds.
// It returns -Inf when T < m (no valid assignment of at least one second
// per node exists).
func LogIsolationBound(m int, lambda float64, T int) float64 {
	if m <= 0 || T < m || lambda <= 0 {
		return math.Inf(-1)
	}
	perNode := lambda * float64(T) / float64(m)
	// ln(1 - e^{-x}) computed stably.
	lnTerm := math.Log1p(-math.Exp(-perNode))
	return stats.LogChoose(T, m) + float64(m)*lnTerm
}

// ErrUnreachableTarget is returned when no timing constraint up to the
// search horizon achieves the target probability.
var ErrUnreachableTarget = errors.New("attack: target probability unreachable")

// MinTimingConstraint returns the smallest T (seconds) such that
// b(m, T) ≥ targetP — Table VI's cell values (the paper uses targetP 0.8).
func MinTimingConstraint(m int, lambda, targetP float64) (int, error) {
	if m <= 0 {
		return 0, fmt.Errorf("attack: m = %d must be positive", m)
	}
	if lambda <= 0 {
		return 0, fmt.Errorf("attack: lambda = %v must be positive", lambda)
	}
	if targetP <= 0 || targetP > 1 {
		return 0, fmt.Errorf("attack: target probability %v outside (0,1]", targetP)
	}
	logTarget := math.Log(targetP)
	const horizon = 1 << 22 // ~48 days in seconds; far beyond any Table VI cell
	pred := func(T int) bool { return LogIsolationBound(m, lambda, T) >= logTarget }
	got := stats.BisectMinInt(m, horizon, pred)
	if got > horizon {
		return 0, fmt.Errorf("%w: m=%d lambda=%v p=%v", ErrUnreachableTarget, m, lambda, targetP)
	}
	return got, nil
}

// TimingTable regenerates Table VI: for each λ (rows) and m (columns), the
// minimum timing constraint in seconds at the given success probability.
type TimingTable struct {
	Lambdas []float64
	Ms      []int
	TargetP float64
	// Seconds[i][j] is the bound for Lambdas[i], Ms[j].
	Seconds [][]int
}

// ComputeTimingTable evaluates the model over the paper's grid
// (λ ∈ {0.4..0.9}, m ∈ {100..1500}) or any custom grid.
func ComputeTimingTable(lambdas []float64, ms []int, targetP float64) (*TimingTable, error) {
	if len(lambdas) == 0 || len(ms) == 0 {
		return nil, errors.New("attack: empty grid")
	}
	t := &TimingTable{
		Lambdas: append([]float64(nil), lambdas...),
		Ms:      append([]int(nil), ms...),
		TargetP: targetP,
		Seconds: make([][]int, len(lambdas)),
	}
	for i, l := range lambdas {
		t.Seconds[i] = make([]int, len(ms))
		for j, m := range ms {
			v, err := MinTimingConstraint(m, l, targetP)
			if err != nil {
				return nil, err
			}
			t.Seconds[i][j] = v
		}
	}
	return t, nil
}

// PaperTimingGrid returns Table VI's λ and m axes.
func PaperTimingGrid() (lambdas []float64, ms []int) {
	return []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		[]int{100, 300, 500, 800, 1000, 1200, 1500}
}

// ConnectionCDF evaluates Eq. 1's F(t) = 1 - e^{-λt}: the probability one
// node is connected and fed within t seconds.
func ConnectionCDF(lambda, t float64) float64 {
	if t <= 0 || lambda <= 0 {
		return 0
	}
	return 1 - math.Exp(-lambda*t)
}

// IsolationProbability evaluates Eq. 2's exact product form for a concrete
// timing assignment: ρ(T) = Π (1 - e^{-λ·ti}).
//
//lint:ignore unusedexport Eq. 2's exact product, the reference the Cauchy-bound property test compares the model against
func IsolationProbability(lambda float64, times []float64) float64 {
	p := 1.0
	for _, t := range times {
		p *= ConnectionCDF(lambda, t)
	}
	return p
}
