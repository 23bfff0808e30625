package defense

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// Route guarding (§VI, after Zhang et al.): "reactive and proactive defense
// strategies ... based on the idea of 'bogus route purging and valid route
// promotion'". The guard compares the live route table against registered
// prefix ownership, flags announcements that divert traffic from the
// legitimate origin, and purges them.

// Suspicion is one flagged announcement.
type Suspicion struct {
	Prefix topology.Prefix
	Origin topology.ASN
	// Legit is the registered owner whose traffic the announcement diverts.
	Legit topology.ASN
}

// RouteGuard audits a topology's route table.
type RouteGuard struct {
	topo *topology.Topology
	// Detections counts suspicious routes found across audits.
	Detections int
	// Purged counts routes removed.
	Purged int
}

// NewRouteGuard wraps a topology.
func NewRouteGuard(topo *topology.Topology) (*RouteGuard, error) {
	if topo == nil {
		return nil, errors.New("defense: nil topology")
	}
	return &RouteGuard{topo: topo}, nil
}

// Audit scans sample IPs (one per registered prefix of every AS) and flags
// those whose current resolution differs from the registered owner. This is
// the "control plane vs registry" comparison a route-origin validator
// performs.
func (g *RouteGuard) Audit() []Suspicion {
	var found []Suspicion
	for _, asn := range g.topo.ASNs() {
		as, ok := g.topo.AS(asn)
		if !ok {
			continue
		}
		for _, pfx := range as.Prefixes {
			probe := pfx.Base + 1 // first host address
			now, okNow := g.topo.Resolve(probe)
			if !okNow || now == asn {
				continue
			}
			found = append(found, Suspicion{Prefix: pfx, Origin: now, Legit: asn})
		}
	}
	g.Detections += len(found)
	return found
}

// PurgeSuspicious withdraws only the specific suspicious announcements
// found by an audit — the reactive path when the guard cannot distinguish
// hijacks by flag and must act on observed divergence.
func (g *RouteGuard) PurgeSuspicious(suspicions []Suspicion) (int, error) {
	purged := 0
	rt := g.topo.Routes()
	for _, s := range suspicions {
		// A sub-prefix hijack announces the two halves of the victim
		// prefix; withdraw whichever of them the diverting origin holds.
		lo, hi, err := s.Prefix.Halves()
		if err == nil {
			purged += rt.Withdraw(lo, s.Origin, true)
			purged += rt.Withdraw(hi, s.Origin, true)
		}
		purged += rt.Withdraw(s.Prefix, s.Origin, true)
	}
	if purged == 0 && len(suspicions) > 0 {
		return 0, fmt.Errorf("defense: %d suspicions but nothing purged", len(suspicions))
	}
	g.Purged += purged
	return purged, nil
}
