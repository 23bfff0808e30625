// Package crawler reimplements the Bitnodes-style measurement apparatus of
// §IV-A over the simulated network: it maintains a view of every reachable
// node, records each node's most recent block against the global tip at a
// fixed sampling interval (10 minutes in the paper's main dataset, 1 minute
// for the consensus-pruning study), derives the per-node lag used by the
// temporal attacks, and persists snapshots as JSON lines.
package crawler

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/netsim"
	"repro/internal/p2p"
)

// NodeObservation is what the crawler records about one node at one sample
// — the per-node fields Bitnodes exposes (§IV-A): location (AS/org),
// address family, client version, the derived indices, and the chain view.
type NodeObservation struct {
	ID           int     `json:"id"`
	ASN          int     `json:"asn"`
	Org          string  `json:"org,omitempty"`
	Family       string  `json:"family,omitempty"`
	Version      string  `json:"version,omitempty"`
	LatencyIndex float64 `json:"latency_index,omitempty"`
	UptimeIndex  float64 `json:"uptime_index,omitempty"`
	Up           bool    `json:"up"`
	Height       int     `json:"height"`
	Behind       int     `json:"behind"`
}

// Snapshot is one full-network sample.
type Snapshot struct {
	// T is the virtual capture time in seconds.
	T float64 `json:"t"`
	// TipHeight is the global best height at capture.
	TipHeight int `json:"tip_height"`
	// Nodes are the per-node observations.
	Nodes []NodeObservation `json:"nodes"`
}

// LagBuckets folds a snapshot into the Figure 6 stacked buckets.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *Snapshot) LagBuckets() p2p.LagBuckets {
	var lb p2p.LagBuckets
	for _, n := range s.Nodes {
		if !n.Up {
			continue
		}
		lb.Add(n.Behind)
	}
	return lb
}

// VulnerableNodes returns the IDs of up nodes at least minLag behind — the
// adversarial query of §III ("identify vulnerable nodes that are 1-5 blocks
// behind").
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *Snapshot) VulnerableNodes(minLag int) []int {
	var out []int
	for _, n := range s.Nodes {
		if n.Up && n.Behind >= minLag {
			out = append(out, n.ID)
		}
	}
	return out
}

// Crawler samples a simulation on its virtual clock.
type Crawler struct {
	sim      *netsim.Simulation
	interval time.Duration
	snaps    []Snapshot
	stopped  bool

	// Flaky-peer probing (retry.go). retryOn gates the machinery so the
	// zero RetryConfig leaves the classic capture path untouched.
	retry        RetryConfig
	retryOn      bool
	probeStream  splitmix
	jitterStream splitmix

	retriesFailed    int
	retriesRecovered int
	retriesExhausted int
}

// New creates a crawler sampling every interval.
func New(sim *netsim.Simulation, interval time.Duration) (*Crawler, error) {
	if sim == nil {
		return nil, errors.New("crawler: nil simulation")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("crawler: interval %v must be positive", interval)
	}
	return &Crawler{sim: sim, interval: interval}, nil
}

// NewWithRetry creates a crawler whose probes fail with rc.FailureRate and
// are retried with capped exponential backoff and deterministic jitter —
// the hardened-ingestion crawl of DESIGN.md §11.
func NewWithRetry(sim *netsim.Simulation, interval time.Duration, rc RetryConfig) (*Crawler, error) {
	c, err := New(sim, interval)
	if err != nil {
		return nil, err
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	c.retry = rc.withDefaults()
	c.retryOn = rc.FailureRate > 0
	c.seedStreams()
	return c, nil
}

// Start schedules periodic captures on the simulation clock.
func (c *Crawler) Start() {
	c.stopped = false
	c.schedule()
}

// Stop halts future captures.
func (c *Crawler) Stop() { c.stopped = true }

func (c *Crawler) schedule() {
	err := c.sim.Engine.After(c.interval, func(now time.Duration) {
		if c.stopped {
			return
		}
		c.capture(now)
		c.schedule()
	})
	if err != nil {
		panic(fmt.Sprintf("crawler: schedule: %v", err))
	}
}

// capture takes one snapshot now. With flaky-peer probing enabled, a probe
// that fails records the peer down for now and schedules a deterministic
// backoff retry that patches the observation in place (retry.go).
func (c *Crawler) capture(now time.Duration) {
	ref := c.sim.Network.RefHeight()
	snap := Snapshot{T: now.Seconds(), TipHeight: ref}
	snapIdx := len(c.snaps)
	var flaky []int
	for i, node := range c.sim.Network.Nodes {
		if c.retryOn && c.probeFails() {
			c.retriesFailed++
			snap.Nodes = append(snap.Nodes, NodeObservation{ID: int(node.ID), Up: false})
			flaky = append(flaky, i)
			continue
		}
		snap.Nodes = append(snap.Nodes, c.observe(i, ref))
	}
	c.snaps = append(c.snaps, snap)
	for _, i := range flaky {
		c.scheduleRetry(snapIdx, i, ref, 1)
	}
}

// VersionCensus aggregates the snapshot's client versions — the crawl-side
// input to the logical attack of §V-D.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *Snapshot) VersionCensus() map[string]int {
	out := map[string]int{}
	for _, n := range s.Nodes {
		if n.Version != "" {
			out[n.Version]++
		}
	}
	return out
}

// SyncedByAS aggregates synced-node counts per AS — the crawl-side input
// to the spatio-temporal planner (Table VII).
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (s *Snapshot) SyncedByAS() map[int]int {
	out := map[int]int{}
	for _, n := range s.Nodes {
		if n.Up && n.Behind == 0 {
			out[n.ASN]++
		}
	}
	return out
}

// CaptureNow takes an immediate snapshot outside the periodic schedule.
//
//lint:ignore unusedexport deferred: only its own unit tests reach it; they go with it in a later change (ROADMAP item 5)
func (c *Crawler) CaptureNow() Snapshot {
	c.capture(c.sim.Engine.Now())
	return c.snaps[len(c.snaps)-1]
}

// Snapshots returns all captures so far.
func (c *Crawler) Snapshots() []Snapshot { return c.snaps }

// WriteJSONL streams snapshots as one JSON object per line.
func WriteJSONL(w io.Writer, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return fmt.Errorf("crawler: encode snapshot %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads snapshots written by WriteJSONL.
//
//lint:ignore unusedexport decodes WriteJSONL output for the crawl round-trip and temporal-pipeline tests
func ReadJSONL(r io.Reader) ([]Snapshot, error) {
	var out []Snapshot
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var s Snapshot
		if err := dec.Decode(&s); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("crawler: decode snapshot %d: %w", len(out), err)
		}
		out = append(out, s)
	}
}
