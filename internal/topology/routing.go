package topology

import "fmt"

// Route is one BGP announcement: a prefix originated by an AS. Hijack marks
// announcements injected by an attacker rather than the legitimate owner.
type Route struct {
	Prefix Prefix
	Origin ASN
	Hijack bool
	seq    int // announcement order, for deterministic tie-breaking
}

// RouteTable is a global-view BGP table with longest-prefix-match selection.
// The model abstracts away AS-path propagation: as in the paper's threat
// model, a more-specific announcement wins everywhere, and an equally
// specific hijack announcement competes on age (older announcement wins,
// approximating the victim retaining part of the traffic).
type RouteTable struct {
	routes  []Route
	nextSeq int
}

// NewRouteTable returns an empty table.
func NewRouteTable() *RouteTable {
	return &RouteTable{}
}

// Announce inserts a route. Announcing the identical (prefix, origin,
// hijack) tuple twice is an error.
func (rt *RouteTable) Announce(p Prefix, origin ASN, hijack bool) error {
	for _, r := range rt.routes {
		if r.Prefix == p && r.Origin == origin && r.Hijack == hijack {
			return fmt.Errorf("topology: route %v from AS%d already announced", p, origin)
		}
	}
	rt.routes = append(rt.routes, Route{Prefix: p, Origin: origin, Hijack: hijack, seq: rt.nextSeq})
	rt.nextSeq++
	return nil
}

// Withdraw removes all routes for the prefix from the given origin matching
// the hijack flag. It returns the number of routes removed. This implements
// the "bogus route purging" countermeasure of Zhang et al. cited in §VI.
func (rt *RouteTable) Withdraw(p Prefix, origin ASN, hijack bool) int {
	kept := rt.routes[:0]
	removed := 0
	for _, r := range rt.routes {
		if r.Prefix == p && r.Origin == origin && r.Hijack == hijack {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	rt.routes = kept
	return removed
}

// WithdrawHijacks removes every hijack announcement from the table and
// returns how many were purged.
func (rt *RouteTable) WithdrawHijacks() int {
	kept := rt.routes[:0]
	removed := 0
	for _, r := range rt.routes {
		if r.Hijack {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	rt.routes = kept
	return removed
}

// Resolve returns the origin AS of the best (longest-prefix, then oldest)
// route covering ip, considering hijacks.
func (rt *RouteTable) Resolve(ip IP) (ASN, bool) {
	return rt.resolve(ip, true)
}

// ResolveLegit resolves ignoring hijack announcements: the legitimate owner.
//
//lint:ignore unusedexport the legitimate-owner oracle the hijack tests compare live routing against
func (rt *RouteTable) ResolveLegit(ip IP) (ASN, bool) {
	return rt.resolve(ip, false)
}

func (rt *RouteTable) resolve(ip IP, includeHijacks bool) (ASN, bool) {
	best := -1
	for i, r := range rt.routes {
		if r.Hijack && !includeHijacks {
			continue
		}
		if !r.Prefix.Contains(ip) {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := rt.routes[best]
		if r.Prefix.Len > b.Prefix.Len || (r.Prefix.Len == b.Prefix.Len && r.seq < b.seq) {
			best = i
		}
	}
	if best == -1 {
		return 0, false
	}
	return rt.routes[best].Origin, true
}

// HijackPrefix launches a sub-prefix hijack of target from attacker: the
// attacker announces both more-specific halves of the target prefix, winning
// longest-prefix-match for every address inside it. For /32 targets, where
// no more-specific announcement exists, it announces the same prefix (an
// exact-prefix hijack, which splits traffic; our model awards the oldest
// announcement, so an exact hijack of an already-announced /32 does not
// capture it — matching the real-world fact that exact-prefix hijacks only
// capture part of the topology).
func (rt *RouteTable) HijackPrefix(attacker ASN, target Prefix) error {
	if target.Len >= 32 {
		return rt.Announce(target, attacker, true)
	}
	lo, hi, err := target.Halves()
	if err != nil {
		return err
	}
	if err := rt.Announce(lo, attacker, true); err != nil {
		return err
	}
	if err := rt.Announce(hi, attacker, true); err != nil {
		return err
	}
	return nil
}

// HijackCount returns the number of active hijack announcements.
func (rt *RouteTable) HijackCount() int {
	n := 0
	for _, r := range rt.routes {
		if r.Hijack {
			n++
		}
	}
	return n
}
