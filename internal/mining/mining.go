// Package mining models Bitcoin's block-production layer: mining pools with
// fractional hash rates, the stratum servers that aggregate their miners
// (whose AS placement Table IV of the paper maps), and the block interval
// whose rate the simulators scale by the hash share still connected — the
// mechanism that lets a 30%-hash-rate attacker sustain a counterfeit branch
// inside an isolated partition, §V-B.
package mining

import (
	"errors"
	"fmt"
	"math/rand"
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
