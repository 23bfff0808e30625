// Package faults is the deterministic fault-injection engine of the
// reproduction. The paper's attacks are evaluated on a pristine network —
// every node up, every link symmetric, every message subject only to the
// uniform 10% loss the paper models — which makes every result a best case
// for the defender. Real Bitcoin is messier: the Bitnodes uptime index
// exists precisely because ~10% of nodes flap between 10-minute samples,
// BGP incidents leave asymmetric half-dead links behind, and partitions
// heal. This package injects that mess, reproducibly:
//
//   - node churn — scheduled leave/restart cycles with optional outbound
//     peer re-discovery on restart;
//   - link faults — permanently dead links, one-way blackholes, and
//     periodic flapping with a configurable period and duty cycle;
//   - message chaos — extra loss, extra delay, and duplication on top of
//     the simulator's own failure model.
//
// A Scenario value describes the fault load; the zero value injects
// nothing and is contractually a no-op (the pinned `experiment all` golden
// does not move). Scenarios thread through the three simulators via
// netsim.Config.Faults / gridsim.Config.Faults / core.WithFaults and reach
// the CLI as `-faults <preset>`.
//
// Determinism rules (DESIGN.md §10): every fault family draws from its own
// SplitMix64 stream derived from the injector seed — churn gets one stream
// per node, message chaos one per simulation (advanced in event order),
// and the link table is a pure hash of (seed, endpoints, time), stateless
// by construction. Fault draws never come from a simulation's math/rand
// stream, and instrumentation goes through the nil-safe obs layer, so a
// scenario run is byte-identical at any worker count.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ChurnSpec describes node churn: each eligible node alternates exponential
// up/down holding times, modelling the join/leave flapping the Bitnodes
// uptime index measures.
type ChurnSpec struct {
	// Fraction of nodes subject to churn, selected deterministically per
	// node from the churn stream. Gateways (netsim) and the attacker anchor
	// cell (gridsim) are always exempt: pool infrastructure is stable, and
	// the attacker keeps his own node alive.
	Fraction float64
	// MeanUptime is the mean of the exponential time a churning node stays
	// up before leaving.
	MeanUptime time.Duration
	// MeanDowntime is the mean of the exponential time it stays down.
	MeanDowntime time.Duration
	// Rediscover re-picks the node's outbound peers on restart (peer
	// re-discovery), the way a restarted bitcoind re-dials from its addrman
	// rather than resuming its old connections.
	Rediscover bool
}

// Enabled reports whether the spec injects anything.
func (c ChurnSpec) Enabled() bool {
	return c.Fraction > 0 && c.MeanUptime > 0 && c.MeanDowntime > 0
}

// LinkSpec describes per-link faults. Assignment is a pure hash of the
// injector seed and the endpoints, so whether a given link is faulty never
// depends on traffic order.
type LinkSpec struct {
	// DropFraction of undirected links are dead in both directions.
	DropFraction float64
	// OneWayFraction of directed links are blackholed in one direction
	// only — the asymmetric half-dead state BGP hijack recovery leaves
	// behind while routes reconverge.
	OneWayFraction float64
	// FlapFraction of undirected links flap: up for FlapDuty of each
	// FlapPeriod, down for the rest, with a per-link phase offset.
	FlapFraction float64
	// FlapPeriod is the flap cycle length. Default 10m when flapping is
	// enabled without a period.
	FlapPeriod time.Duration
	// FlapDuty is the fraction of each period the link is up (0,1].
	// Default 0.5 when flapping is enabled without a duty cycle.
	FlapDuty float64
}

// Enabled reports whether the spec injects anything.
func (l LinkSpec) Enabled() bool {
	return l.DropFraction > 0 || l.OneWayFraction > 0 || l.FlapFraction > 0
}

// ChaosSpec describes message-level chaos applied on top of the
// simulator's own failure model.
type ChaosSpec struct {
	// LossProb is an extra per-message loss probability.
	LossProb float64
	// DupProb is the probability a message is delivered twice (each copy
	// with its own relay delay).
	DupProb float64
	// DelayProb is the probability a message is held for an extra
	// exponential delay of mean MeanExtraDelay before normal relay.
	DelayProb float64
	// MeanExtraDelay is the mean of that extra delay. Default 2s when
	// DelayProb is set without a mean.
	MeanExtraDelay time.Duration
}

// Enabled reports whether the spec injects anything.
func (c ChaosSpec) Enabled() bool {
	return c.LossProb > 0 || c.DupProb > 0 || c.DelayProb > 0
}

// Scenario is a complete fault-injection configuration — the value the
// Scenario API passes around. The zero value is the pristine network: no
// churn, no link faults, no chaos, provably a no-op.
type Scenario struct {
	// Name labels the scenario ("" for an anonymous custom scenario).
	// Presets carry their registry name.
	Name  string
	Churn ChurnSpec
	Links LinkSpec
	Chaos ChaosSpec
}

// Enabled reports whether the scenario injects any fault at all.
func (s Scenario) Enabled() bool {
	return s.Churn.Enabled() || s.Links.Enabled() || s.Chaos.Enabled()
}

// String renders the scenario compactly for CLI/error text.
func (s Scenario) String() string {
	if !s.Enabled() {
		if s.Name != "" {
			return s.Name + " (no faults)"
		}
		return "none"
	}
	var parts []string
	if s.Churn.Enabled() {
		parts = append(parts, fmt.Sprintf("churn %.0f%% up~%v/down~%v",
			s.Churn.Fraction*100, s.Churn.MeanUptime, s.Churn.MeanDowntime))
	}
	if s.Links.Enabled() {
		parts = append(parts, fmt.Sprintf("links drop=%.0f%% oneway=%.0f%% flap=%.0f%%",
			s.Links.DropFraction*100, s.Links.OneWayFraction*100, s.Links.FlapFraction*100))
	}
	if s.Chaos.Enabled() {
		parts = append(parts, fmt.Sprintf("chaos loss=%.0f%% dup=%.0f%% delay=%.0f%%",
			s.Chaos.LossProb*100, s.Chaos.DupProb*100, s.Chaos.DelayProb*100))
	}
	name := s.Name
	if name == "" {
		name = "custom"
	}
	return name + ": " + strings.Join(parts, "; ")
}

// withDefaults fills the secondary parameters of enabled fault families.
func (s Scenario) withDefaults() Scenario {
	if s.Links.FlapFraction > 0 {
		if s.Links.FlapPeriod == 0 {
			s.Links.FlapPeriod = 10 * time.Minute
		}
		if s.Links.FlapDuty == 0 {
			s.Links.FlapDuty = 0.5
		}
	}
	if s.Chaos.DelayProb > 0 && s.Chaos.MeanExtraDelay == 0 {
		s.Chaos.MeanExtraDelay = 2 * time.Second
	}
	return s
}

// Validate rejects unusable parameters.
func (s Scenario) Validate() error {
	checkFrac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"churn fraction", s.Churn.Fraction},
		{"link drop fraction", s.Links.DropFraction},
		{"link one-way fraction", s.Links.OneWayFraction},
		{"link flap fraction", s.Links.FlapFraction},
		{"chaos loss probability", s.Chaos.LossProb},
		{"chaos duplication probability", s.Chaos.DupProb},
		{"chaos delay probability", s.Chaos.DelayProb},
	} {
		if err := checkFrac(f.name, f.v); err != nil {
			return err
		}
	}
	if s.Churn.MeanUptime < 0 || s.Churn.MeanDowntime < 0 {
		return fmt.Errorf("faults: negative churn holding time (up %v, down %v)",
			s.Churn.MeanUptime, s.Churn.MeanDowntime)
	}
	if s.Churn.Fraction > 0 && !s.Churn.Enabled() {
		return fmt.Errorf("faults: churn fraction %v needs positive MeanUptime and MeanDowntime", s.Churn.Fraction)
	}
	if s.Links.FlapPeriod < 0 {
		return fmt.Errorf("faults: negative flap period %v", s.Links.FlapPeriod)
	}
	if s.Links.FlapDuty < 0 || s.Links.FlapDuty > 1 {
		return fmt.Errorf("faults: flap duty %v outside [0,1]", s.Links.FlapDuty)
	}
	if s.Chaos.MeanExtraDelay < 0 {
		return fmt.Errorf("faults: negative mean extra delay %v", s.Chaos.MeanExtraDelay)
	}
	return nil
}

// Stable is the explicit pristine-network preset: a named scenario that
// injects nothing. It exists so `-faults stable` states the baseline
// explicitly, and so fault sweeps have a control row.
func Stable() Scenario { return Scenario{Name: "stable"} }

// Churny models the Bitnodes flapping population: 30% of nodes churn with
// a mean 4h uptime and 30m downtime, re-discovering their outbound peers
// on restart. Over a 10-minute sample roughly 10% of the churning set is
// mid-transition, matching the ~10% inter-sample flap rate the uptime
// index records.
func Churny() Scenario {
	return Scenario{
		Name: "churny",
		Churn: ChurnSpec{
			Fraction:     0.30,
			MeanUptime:   4 * time.Hour,
			MeanDowntime: 30 * time.Minute,
			Rediscover:   true,
		},
	}
}

// Flaky models a congested, lossy network: a fifth of all links flap on a
// 10-minute cycle (up 70% of the time), and messages see extra loss,
// occasional duplication, and occasional multi-second stalls.
func Flaky() Scenario {
	return Scenario{
		Name: "flaky",
		Links: LinkSpec{
			FlapFraction: 0.20,
			FlapPeriod:   10 * time.Minute,
			FlapDuty:     0.70,
		},
		Chaos: ChaosSpec{
			LossProb:       0.05,
			DupProb:        0.02,
			DelayProb:      0.05,
			MeanExtraDelay: 5 * time.Second,
		},
	}
}

// HijackRecovery models the aftermath of a BGP incident while routes
// reconverge: a tenth of directed links are blackholed one-way (the
// asymmetric state interception leaves behind), some links are fully dead,
// the rest flap as announcements and withdrawals race, and a slice of
// nodes restarts. This is the backdrop against which the paper's §V heal
// damage should be read.
func HijackRecovery() Scenario {
	return Scenario{
		Name: "hijack-recovery",
		Churn: ChurnSpec{
			Fraction:     0.10,
			MeanUptime:   2 * time.Hour,
			MeanDowntime: 15 * time.Minute,
			Rediscover:   true,
		},
		Links: LinkSpec{
			DropFraction:   0.05,
			OneWayFraction: 0.10,
			FlapFraction:   0.10,
			FlapPeriod:     5 * time.Minute,
			FlapDuty:       0.60,
		},
	}
}

// presets is the named-scenario registry. Static registration keeps the
// CLI's -faults dispatch and error text deterministic, mirroring the
// attack-plan registry.
var presets = map[string]func() Scenario{
	"stable":          Stable,
	"churny":          Churny,
	"flaky":           Flaky,
	"hijack-recovery": HijackRecovery,
}

// PresetNames returns the registry keys in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named scenario. Unknown names report the full sorted
// registry, like attack.NewPlan.
func Preset(name string) (Scenario, error) {
	ctor, ok := presets[name]
	if !ok {
		return Scenario{}, fmt.Errorf("faults: unknown scenario %q (presets: %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return ctor(), nil
}
