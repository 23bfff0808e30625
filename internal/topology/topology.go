package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ASN is an autonomous system number.
type ASN int

// TorASN is the pseudo-ASN the paper assigns to all Tor onion nodes ("We
// group TOR nodes and treat them as a single AS").
const TorASN ASN = -1

// AS is an autonomous system: a numbered routing domain owned by an
// organization and originating a set of BGP prefixes.
type AS struct {
	Number   ASN
	Name     string
	Org      string
	Prefixes []Prefix
	// Country is the jurisdiction the AS operates in, used by the
	// nation-state adversary model (§III mentions China routing ~60% of
	// mining traffic).
	Country string
}

// Organization aggregates the ASes owned by one ISP/cloud provider. The
// paper's organization-level analysis exists precisely because one org can
// own several ASes (Amazon: AS16509 + others; AliBaba: AS37963 + AS45102).
type Organization struct {
	Name string
	ASNs []ASN
}

// Topology is the registry of ASes and organizations plus the global BGP
// route table. The zero value is not usable; call New.
type Topology struct {
	ases map[ASN]*AS
	orgs map[string]*Organization
	rt   *RouteTable
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{
		ases: map[ASN]*AS{},
		orgs: map[string]*Organization{},
		rt:   NewRouteTable(),
	}
}

// Errors returned by Topology operations.
var (
	ErrDuplicateAS = errors.New("topology: duplicate AS")
	ErrUnknownAS   = errors.New("topology: unknown AS")
)

// AddAS registers an AS, creates its organization on first sight, and
// announces all of its prefixes in the route table. An AS listing a prefix
// twice is rejected before anything is registered.
func (t *Topology) AddAS(as AS) error {
	if _, ok := t.ases[as.Number]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateAS, as.Number)
	}
	seen := make(map[Prefix]struct{}, len(as.Prefixes))
	for _, p := range as.Prefixes {
		if _, dup := seen[p]; dup {
			return fmt.Errorf("topology: AS%d lists prefix %v twice", as.Number, p)
		}
		seen[p] = struct{}{}
	}
	stored := as
	stored.Prefixes = append([]Prefix(nil), as.Prefixes...)
	t.ases[as.Number] = &stored
	org, ok := t.orgs[as.Org]
	if !ok {
		org = &Organization{Name: as.Org}
		t.orgs[as.Org] = org
	}
	org.ASNs = append(org.ASNs, as.Number)
	t.rt.announceNew(as.Number, stored.Prefixes)
	return nil
}

// AS returns the AS with the given number.
func (t *Topology) AS(n ASN) (*AS, bool) {
	as, ok := t.ases[n]
	return as, ok
}

// ASNs returns all registered AS numbers in ascending order.
func (t *Topology) ASNs() []ASN {
	out := make([]ASN, 0, len(t.ases))
	for n := range t.ases {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fork returns a topology that shares t's AS and organization registry but
// owns a copy of t's route table, so announcements and withdrawals on the
// fork never reach t, nor t's the fork's. Forks of one topology may be
// taken and used from several goroutines at once while nothing changes t.
// The registry must not be modified through either.
func (t *Topology) Fork() *Topology {
	rt := *t.rt
	rt.routes = slices.Clone(t.rt.routes)
	rt.index = slices.Clone(t.rt.index)
	rt.lens = slices.Clone(t.rt.lens)
	return &Topology{ases: t.ases, orgs: t.orgs, rt: &rt}
}

// Routes exposes the route table for announcement and hijack operations.
func (t *Topology) Routes() *RouteTable { return t.rt }

// Resolve returns the AS currently routing ip per longest-prefix match,
// including the effect of any active hijacks.
func (t *Topology) Resolve(ip IP) (ASN, bool) {
	return t.rt.Resolve(ip)
}

// ASesOfOrg returns the AS records for an organization, sorted by ASN.
func (t *Topology) ASesOfOrg(name string) []*AS {
	org, ok := t.orgs[name]
	if !ok {
		return nil
	}
	out := make([]*AS, 0, len(org.ASNs))
	for _, n := range org.ASNs {
		out = append(out, t.ases[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// ASesInCountry returns the ASNs registered under a country code, for the
// nation-state adversary model.
func (t *Topology) ASesInCountry(country string) []ASN {
	var out []ASN
	for n, as := range t.ases {
		if as.Country == country {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks registry invariants: every announced legitimate route's
// origin is a registered AS, and every org back-references only registered
// ASes. Used by property tests.
//
//lint:ignore unusedexport registry invariant checker the topology and population property tests assert against
func (t *Topology) Validate() error {
	for _, org := range t.orgs {
		for _, n := range org.ASNs {
			as, ok := t.ases[n]
			if !ok {
				return fmt.Errorf("topology: org %q references unknown AS%d", org.Name, n)
			}
			if as.Org != org.Name {
				return fmt.Errorf("topology: AS%d org mismatch: %q vs %q", n, as.Org, org.Name)
			}
		}
	}
	for _, route := range t.rt.routes {
		if route.Hijack {
			continue
		}
		if _, ok := t.ases[route.Origin]; !ok {
			return fmt.Errorf("topology: route %v originated by unknown AS%d", route.Prefix, route.Origin)
		}
	}
	return nil
}
