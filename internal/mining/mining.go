// Package mining models Bitcoin's block-production layer: mining pools with
// fractional hash rates, the stratum servers that aggregate their miners
// (whose AS placement Table IV of the paper maps), and the stochastic block
// production process (Poisson arrivals whose rate scales with the hash share
// still connected — the mechanism that lets a 30%-hash-rate attacker sustain
// a counterfeit branch inside an isolated partition, §V-B).
package mining

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// BlockInterval is Bitcoin's target block time: one block per 600 seconds at
// full network hash rate.
const BlockInterval = 600 * time.Second

// Pool is a mining pool: a named aggregate of miners submitting proof-of-work
// shares to a stratum server.
type Pool struct {
	Name string
	// HashShare is the pool's fraction of total network hash rate, in [0,1].
	HashShare float64
	// StratumASes lists the ASes hosting the pool's stratum servers. If any
	// of them is reachable the pool keeps mining; isolating all of them cuts
	// the pool off (the spatial attack on miners, §V-A).
	StratumASes []topology.ASN
	// StratumOrg is the organization hosting the primary stratum server.
	StratumOrg string
}

// ErrBadShare is returned when pool hash shares are invalid.
var ErrBadShare = errors.New("mining: invalid hash share")

// PoolSet is a fixed roster of mining pools.
type PoolSet struct {
	pools []Pool
}

// NewPoolSet validates and stores a pool roster. Shares must be in [0,1] and
// sum to at most 1+ε (the remainder is treated as unmodelled small miners,
// matching the paper's exclusion of the 12 smallest pools).
func NewPoolSet(pools []Pool) (*PoolSet, error) {
	var total float64
	for i, p := range pools {
		if p.HashShare < 0 || p.HashShare > 1 {
			return nil, fmt.Errorf("%w: pool %d (%s) share %v", ErrBadShare, i, p.Name, p.HashShare)
		}
		total += p.HashShare
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("%w: shares sum to %v > 1", ErrBadShare, total)
	}
	return &PoolSet{pools: append([]Pool(nil), pools...)}, nil
}

// Pools returns a copy of the roster.
func (s *PoolSet) Pools() []Pool {
	return append([]Pool(nil), s.pools...)
}

// Len returns the number of pools.
func (s *PoolSet) Len() int { return len(s.pools) }

// TotalShare returns the summed hash share of the roster.
func (s *PoolSet) TotalShare() float64 {
	var total float64
	for _, p := range s.pools {
		total += p.HashShare
	}
	return total
}

// ShareBehindASes returns the aggregate hash share whose every stratum AS is
// in the given set — the share an adversary isolates by hijacking those ASes
// (Table IV: three ASes carry 65.7% of mining traffic).
func (s *PoolSet) ShareBehindASes(ases map[topology.ASN]bool) float64 {
	var total float64
	for _, p := range s.pools {
		if len(p.StratumASes) == 0 {
			continue
		}
		all := true
		for _, a := range p.StratumASes {
			if !ases[a] {
				all = false
				break
			}
		}
		if all {
			total += p.HashShare
		}
	}
	return total
}

// ShareBehindOrg returns the aggregate hash share of pools whose primary
// stratum organization matches.
func (s *PoolSet) ShareBehindOrg(org string) float64 {
	var total float64
	for _, p := range s.pools {
		if p.StratumOrg == org {
			total += p.HashShare
		}
	}
	return total
}

// TopByShare returns the n largest pools by hash share (stable for ties).
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *PoolSet) TopByShare(n int) []Pool {
	pools := s.Pools()
	sort.SliceStable(pools, func(i, j int) bool { return pools[i].HashShare > pools[j].HashShare })
	if n > len(pools) {
		n = len(pools)
	}
	return pools[:n]
}

// Producer samples block production for a (sub)network controlling a given
// fraction of total hash rate. When a partition isolates hash power, each
// side's Producer gets the corresponding share and block times stretch
// proportionally — the signal the paper notes isolated nodes misattribute to
// "network issues".
type Producer struct {
	share float64
	rng   *rand.Rand
}

// NewProducer returns a producer for a hash share in (0,1]. A zero or
// negative share never produces (NextBlockIn returns +Inf-like max duration).
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func NewProducer(share float64, rng *rand.Rand) *Producer {
	return &Producer{share: share, rng: rng}
}

// Share returns the producer's hash share.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (p *Producer) Share() float64 { return p.share }

// SetShare adjusts the hash share mid-run (e.g. when a hijack disconnects a
// pool's stratum servers).
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (p *Producer) SetShare(share float64) { p.share = share }

// NextBlockIn samples the time until this producer's next block: exponential
// with rate share/BlockInterval.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (p *Producer) NextBlockIn() time.Duration {
	if p.share <= 0 {
		return time.Duration(1<<62 - 1)
	}
	lambda := p.share / BlockInterval.Seconds()
	secs := stats.Exponential(p.rng, lambda)
	d := time.Duration(secs * float64(time.Second))
	if d < 0 {
		d = time.Duration(1<<62 - 1)
	}
	return d
}

// PickWinner samples which pool in the set mines the next block, restricted
// to pools for which active returns true, proportionally to hash share. It
// returns the pool index, or -1 if no active pool has positive share.
func (s *PoolSet) PickWinner(rng *rand.Rand, active func(Pool) bool) int {
	weights := make([]float64, len(s.pools))
	for i, p := range s.pools {
		if active == nil || active(p) {
			weights[i] = p.HashShare
		}
	}
	return stats.WeightedIndex(rng, weights)
}
