package topology

import (
	"cmp"
	"fmt"
	"slices"
)

// Route is one BGP announcement: a prefix originated by an AS. Hijack marks
// announcements injected by an attacker rather than the legitimate owner.
type Route struct {
	Prefix Prefix
	Origin ASN
	Hijack bool
	seq    int // announcement order; the table keeps its routes sorted by it
}

// RouteTable is a global-view BGP table with longest-prefix-match selection.
// The model abstracts away AS-path propagation: as in the paper's threat
// model, a more-specific announcement wins everywhere, and an equally
// specific hijack announcement competes on age (older announcement wins,
// approximating the victim retaining part of the traffic).
//
// Resolution never scans the routes. index holds one entry per exact
// prefix in the table, sorted by (Base, Len), and lens the prefix lengths
// present, longest first; resolving an address probes its masked prefix at
// each present length. The announcement and withdrawal paths keep both in
// step with routes. Reads never write, so one table can be read from
// several goroutines at once.
type RouteTable struct {
	routes  []Route // in seq order
	nextSeq int
	index   []prefixRoutes
	lens    []lenCount
}

// prefixRoutes is the index entry for one exact prefix: the origin of its
// oldest route, and of its oldest legitimate route when it has one. An
// entry exists exactly while the table holds a route for the prefix.
type prefixRoutes struct {
	prefix   Prefix
	oldest   ASN
	legit    ASN
	hasLegit bool
}

// lenCount is the number of routes in the table with prefix length len.
type lenCount struct {
	len, n int
}

// comparePrefix orders prefixes by base, then length: the index order.
func comparePrefix(a, b Prefix) int {
	if c := cmp.Compare(a.Base, b.Base); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// find returns the index position of p's entry, or where it would go.
func (rt *RouteTable) find(p Prefix) (int, bool) {
	return slices.BinarySearchFunc(rt.index, p, func(e prefixRoutes, p Prefix) int {
		return comparePrefix(e.prefix, p)
	})
}

// add appends a route with the next seq and indexes it. The route is the
// newest in the table, so it becomes its prefix's oldest (or oldest
// legitimate) route only if the prefix has none yet.
func (rt *RouteTable) add(p Prefix, origin ASN, hijack bool) {
	rt.routes = append(rt.routes, Route{Prefix: p, Origin: origin, Hijack: hijack, seq: rt.nextSeq})
	rt.nextSeq++
	// Registration carves prefixes in ascending order, so a new prefix
	// usually sorts last and is appended without a search.
	i, ok := len(rt.index), false
	if i > 0 && comparePrefix(rt.index[i-1].prefix, p) >= 0 {
		i, ok = rt.find(p)
	}
	if !ok {
		rt.index = slices.Insert(rt.index, i, prefixRoutes{prefix: p, oldest: origin})
	}
	if e := &rt.index[i]; !hijack && !e.hasLegit {
		e.legit, e.hasLegit = origin, true
	}
	rt.countLen(p.Len, 1)
}

// countLen adds delta to the route count of prefix length l, keeping lens
// sorted longest first and free of zero counts.
func (rt *RouteTable) countLen(l, delta int) {
	for i := range rt.lens {
		switch {
		case rt.lens[i].len == l:
			rt.lens[i].n += delta
			if rt.lens[i].n == 0 {
				rt.lens = slices.Delete(rt.lens, i, i+1)
			}
			return
		case rt.lens[i].len < l:
			rt.lens = slices.Insert(rt.lens, i, lenCount{len: l, n: delta})
			return
		}
	}
	rt.lens = append(rt.lens, lenCount{len: l, n: delta})
}

// NewRouteTable returns an empty table.
func NewRouteTable() *RouteTable {
	return &RouteTable{}
}

// Announce inserts a route. Announcing the identical (prefix, origin,
// hijack) tuple twice is an error.
func (rt *RouteTable) Announce(p Prefix, origin ASN, hijack bool) error {
	if _, ok := rt.find(p); ok {
		for _, r := range rt.routes {
			if r.Prefix == p && r.Origin == origin && r.Hijack == hijack {
				return fmt.Errorf("topology: route %v from AS%d already announced", p, origin)
			}
		}
	}
	rt.add(p, origin, hijack)
	return nil
}

// announceNew appends the legitimate routes of an AS that AddAS is
// registering, in order. Legitimate routes come from registered ASes (the
// invariant Validate checks) and this AS is new, so none of its routes is
// in the table yet; AddAS has ruled out repeats among prefixes. Announce's
// whole-table duplicate scan would find nothing, and per prefix it makes
// registering a population quadratic.
func (rt *RouteTable) announceNew(origin ASN, prefixes []Prefix) {
	for _, p := range prefixes {
		rt.add(p, origin, false)
	}
}

// Withdraw removes all routes for the prefix from the given origin matching
// the hijack flag. It returns the number of routes removed. This implements
// the "bogus route purging" countermeasure of Zhang et al. cited in §VI.
func (rt *RouteTable) Withdraw(p Prefix, origin ASN, hijack bool) int {
	if _, ok := rt.find(p); !ok {
		return 0
	}
	kept := rt.routes[:0]
	removed := 0
	// The first surviving routes for p, in seq order, become its oldest.
	entry := prefixRoutes{prefix: p}
	found := false
	for _, r := range rt.routes {
		if r.Prefix == p && r.Origin == origin && r.Hijack == hijack {
			removed++
			continue
		}
		kept = append(kept, r)
		if r.Prefix != p {
			continue
		}
		if !found {
			entry.oldest, found = r.Origin, true
		}
		if !r.Hijack && !entry.hasLegit {
			entry.legit, entry.hasLegit = r.Origin, true
		}
	}
	rt.routes = kept
	if removed == 0 {
		return 0
	}
	i, _ := rt.find(p)
	if found {
		rt.index[i] = entry
	} else {
		rt.index = slices.Delete(rt.index, i, i+1)
	}
	rt.countLen(p.Len, -removed)
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
			rt.countLen(r.Prefix.Len, -1)
			continue
		}
		kept = append(kept, r)
	}
	rt.routes = kept
	if removed == 0 {
		return 0
	}
	// With the hijacks gone, a prefix's oldest route is its oldest
	// legitimate one, and a prefix with none leaves the index.
	rt.index = slices.DeleteFunc(rt.index, func(e prefixRoutes) bool { return !e.hasLegit })
	for i := range rt.index {
		rt.index[i].oldest = rt.index[i].legit
	}
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
	// A route contains ip exactly when its prefix is ip masked to the
	// route's length, so the longest match is the first present length
	// whose masked prefix has an entry; the entry names the oldest route.
	for _, l := range rt.lens {
		i, ok := rt.find(Prefix{Base: ip.Mask(l.len), Len: l.len})
		if !ok {
			continue
		}
		if e := rt.index[i]; includeHijacks {
			return e.oldest, true
		} else if e.hasLegit {
			return e.legit, true
		}
	}
	return 0, false
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
