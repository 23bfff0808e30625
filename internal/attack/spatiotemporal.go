package attack

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/topology"
)

// Spatio-temporal partitioning (§V-C): the attacker combines both views —
// synced nodes (immune to counterfeit blocks but reachable by BGP hijack)
// and lagging nodes (cheap temporal prey) — and picks the split matching
// its capabilities. The paper's case study: a cloud provider waits for the
// moment the synced population is smallest, hijacks the top ASes hosting
// the synced nodes, and temporally attacks the rest.

// Capability describes what the adversary can do.
type Capability int

// Capabilities. Enums start at one.
const (
	CapabilityInvalid Capability = iota
	// CapabilityRouting can announce BGP prefixes (a malicious AS/org).
	CapabilityRouting
	// CapabilityMining controls hash power (a malicious pool).
	CapabilityMining
	// CapabilityBoth is the cloud-provider scenario.
	CapabilityBoth
)

// String implements fmt.Stringer.
func (c Capability) String() string {
	switch c {
	case CapabilityRouting:
		return "routing"
	case CapabilityMining:
		return "mining"
	case CapabilityBoth:
		return "routing+mining"
	default:
		return fmt.Sprintf("Capability(%d)", int(c))
	}
}

// Moment is one attack window found in a trace.
type Moment struct {
	SampleIndex int
	Time        time.Duration
	Synced      int
	Behind      int
	// TopSyncedASes are the ASes hosting the most synced nodes at this
	// moment, the spatial target list (Table VII).
	TopSyncedASes []dataset.SyncedASRow
}

// FindBestMoment scans a per-AS-tracked trace for the sample minimizing the
// synced population — the paper's ideal window ("the number of synced nodes
// falls as low as 3,000 while … 2-4 blocks behind go as high as 6,000").
func FindBestMoment(tr *dataset.Trace, topASes int) (*Moment, error) {
	if len(tr.Samples) == 0 {
		return nil, errors.New("attack: empty trace")
	}
	best := -1
	for i, s := range tr.Samples {
		if s.ASSynced == nil {
			return nil, errors.New("attack: trace lacks per-AS sync tracking")
		}
		if best == -1 || s.Buckets[0] < tr.Samples[best].Buckets[0] {
			best = i
		}
	}
	s := tr.Samples[best]
	m := &Moment{
		SampleIndex: best,
		Time:        s.T,
		Synced:      s.Buckets[0],
		Behind:      s.UpNodes - s.Buckets[0],
	}
	var rows []dataset.SyncedASRow
	for k, c := range s.ASSynced {
		if c > 0 {
			rows = append(rows, dataset.SyncedASRow{ASN: tr.ASNs[k], Nodes: int(c)})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].ASN < rows[j].ASN
	})
	if topASes > len(rows) {
		topASes = len(rows)
	}
	for i := 0; i < topASes; i++ {
		rows[i].Fraction = float64(rows[i].Nodes) / float64(s.Buckets[0])
		m.TopSyncedASes = append(m.TopSyncedASes, rows[i])
	}
	return m, nil
}

// SpatioTemporalPlan is the combined attack blueprint.
type SpatioTemporalPlan struct {
	Capability Capability
	Moment     *Moment
	// SpatialASes are hijack targets (empty for a mining-only adversary).
	SpatialASes []topology.ASN
	// SpatialPrefixes is the announcement effort for those ASes.
	SpatialPrefixes int
	// SpatialNodes estimates synced nodes captured by the hijacks.
	SpatialNodes int
	// TemporalVictims estimates lagging nodes available for counterfeit
	// feeding (zero for a routing-only adversary).
	TemporalVictims int
	// Coverage is the estimated fraction of up nodes the combined attack
	// touches.
	Coverage float64
}

// PlanSpatioTemporal builds the capability-adjusted plan at the given
// moment. Routing adversaries take the spatial half only; mining
// adversaries the temporal half; a cloud provider takes both.
func PlanSpatioTemporal(pop *dataset.Population, m *Moment, cap Capability, spatialASCount int) (*SpatioTemporalPlan, error) {
	if m == nil {
		return nil, errors.New("attack: nil moment")
	}
	if cap != CapabilityRouting && cap != CapabilityMining && cap != CapabilityBoth {
		return nil, fmt.Errorf("attack: invalid capability %d", int(cap))
	}
	plan := &SpatioTemporalPlan{Capability: cap, Moment: m}
	if cap == CapabilityRouting || cap == CapabilityBoth {
		n := spatialASCount
		if n > len(m.TopSyncedASes) {
			n = len(m.TopSyncedASes)
		}
		for _, row := range m.TopSyncedASes[:n] {
			plan.SpatialASes = append(plan.SpatialASes, row.ASN)
			plan.SpatialNodes += row.Nodes
			if asRow, ok := pop.ASRow(row.ASN); ok {
				plan.SpatialPrefixes += asRow.Prefixes
			}
		}
	}
	if cap == CapabilityMining || cap == CapabilityBoth {
		plan.TemporalVictims = m.Behind
	}
	total := m.Synced + m.Behind
	if total > 0 {
		plan.Coverage = float64(plan.SpatialNodes+plan.TemporalVictims) / float64(total)
	}
	return plan, nil
}

// SpatioTemporalResult is the outcome of a combined execution on a live
// simulation.
type SpatioTemporalResult struct {
	// SpatialIsolated is how many spatially cut nodes ended the hold behind
	// the honest tip (eclipsed: they stopped receiving blocks entirely).
	SpatialIsolated int
	// Temporal is the embedded temporal-attack outcome on the lagging set.
	Temporal *TemporalResult
}

// ExecuteSpatioTemporal performs both halves on a simulation: spatial
// victims are cut off entirely (BGP-style blackhole), temporal victims are
// cut off and fed the counterfeit branch. The two sets must be disjoint.
func ExecuteSpatioTemporal(sim *netsim.Simulation, cfg TemporalConfig, spatial, temporal []p2p.NodeID) (*SpatioTemporalResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(temporal) == 0 {
		return nil, errors.New("attack: empty temporal victim set")
	}
	inSpatial := make(map[p2p.NodeID]bool, len(spatial))
	for _, id := range spatial {
		inSpatial[id] = true
	}
	for _, id := range temporal {
		if inSpatial[id] {
			return nil, fmt.Errorf("attack: node %d in both victim sets", id)
		}
	}

	refBefore := sim.Network.RefHeight()
	sim.Obs().Tracer().Emit(int64(sim.Engine.Now()), "attack", "spatiotemporal_start",
		obs.Fint("spatial", int64(len(spatial))),
		obs.Fint("temporal", int64(len(temporal))))

	// The temporal executor installs a victim/non-victim policy; wrap it so
	// spatially cut nodes are silenced in both directions as well.
	res := &SpatioTemporalResult{}
	tempRes, err := func() (*TemporalResult, error) {
		// Compose: first isolate the spatial set by marking them down for
		// the duration (a blackholed node neither sends nor receives).
		for _, id := range spatial {
			sim.Network.Nodes[id].Up = false
		}
		defer func() {
			for _, id := range spatial {
				sim.Network.Nodes[id].Up = true
			}
		}()
		return ExecuteTemporalOn(sim, cfg, temporal)
	}()
	if err != nil {
		return nil, err
	}
	res.Temporal = tempRes

	// Spatially cut nodes missed every block of the hold.
	refAfter := sim.Network.RefHeight()
	for _, id := range spatial {
		if sim.Network.Nodes[id].Height() < refAfter && refAfter > refBefore {
			res.SpatialIsolated++
		}
	}
	// Let the released spatial nodes catch back up during the heal window
	// by offering them tips again.
	for _, id := range spatial {
		for _, nb := range sim.Network.Neighbors(id) {
			sim.Network.OfferTip(nb, id)
		}
	}
	sim.Run(sim.Engine.Now() + cfg.HealFor)
	sim.Obs().Registry().Counter("attack.victims_captured").Add(uint64(res.SpatialIsolated))
	sim.Obs().Tracer().Emit(int64(sim.Engine.Now()), "attack", "spatiotemporal_end",
		obs.Fint("spatial_isolated", int64(res.SpatialIsolated)),
		obs.Fint("temporal_captured", int64(res.Temporal.CapturedAtRelease)))
	return res, nil
}
