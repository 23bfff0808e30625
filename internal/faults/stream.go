package faults

import (
	"math"
	"time"

	"repro/internal/parallel"
)

// The fault engine never touches a simulation's math/rand stream: every
// fault family draws from its own SplitMix64 sequence (parallel.Stream)
// derived from the injector seed, so enabling a scenario adds randomness
// without re-ordering any existing draw, and two runs of the same scenario
// at the same seed are byte-identical regardless of worker count (each
// simulation owns its injector; streams advance only inside that
// simulation's deterministic event order). The link-fault table hashes
// with the pure finalizer, parallel.Mix64, instead: a function rather than
// a stateful sampler.

// expDuration samples an exponential holding time with the given mean via
// inversion. The mean-parameterized form mirrors how scenarios are
// specified (mean uptime/downtime/extra delay).
func expDuration(s *parallel.Stream, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	return time.Duration(-float64(mean) * math.Log(1-u))
}

// unit maps a hash word to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// deriveStreamSeed namespaces a fault family (or a node within one) off the
// injector seed.
func deriveStreamSeed(seed int64, salt int) int64 {
	return parallel.DeriveSeed(seed, salt)
}
