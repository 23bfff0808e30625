package topology

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// resolveLinear is the whole-table scan resolve used before the prefix
// index, kept as its oracle: the longest prefix containing ip wins, and
// among equally long ones the oldest announcement.
func resolveLinear(rt *RouteTable, ip IP, includeHijacks bool) (ASN, bool) {
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

// rebuiltIndex derives the index and length counts from the routes alone.
func rebuiltIndex(rt *RouteTable) ([]prefixRoutes, []lenCount) {
	var index []prefixRoutes
	var lens []lenCount
	for _, r := range rt.routes {
		i, ok := slices.BinarySearchFunc(index, r.Prefix, func(e prefixRoutes, p Prefix) int {
			return comparePrefix(e.prefix, p)
		})
		if !ok {
			index = slices.Insert(index, i, prefixRoutes{prefix: r.Prefix, oldest: r.Origin})
		}
		if !r.Hijack && !index[i].hasLegit {
			index[i].legit, index[i].hasLegit = r.Origin, true
		}
		j := slices.IndexFunc(lens, func(c lenCount) bool { return c.len <= r.Prefix.Len })
		switch {
		case j < 0:
			lens = append(lens, lenCount{len: r.Prefix.Len, n: 1})
		case lens[j].len == r.Prefix.Len:
			lens[j].n++
		default:
			lens = slices.Insert(lens, j, lenCount{len: r.Prefix.Len, n: 1})
		}
	}
	return index, lens
}

// checkAgainstOracle compares the table's index with one rebuilt from its
// routes, and Resolve and ResolveLegit with the linear scan on probes.
func checkAgainstOracle(t *testing.T, rt *RouteTable, probes []IP) {
	t.Helper()
	index, lens := rebuiltIndex(rt)
	if !slices.Equal(rt.index, index) || !slices.Equal(rt.lens, lens) {
		t.Fatalf("index out of step with routes:\nindex %v\nwant  %v\nlens  %v\nwant  %v", rt.index, index, rt.lens, lens)
	}
	for _, ip := range probes {
		for _, hijacks := range []bool{true, false} {
			want, wantOK := resolveLinear(rt, ip, hijacks)
			got, gotOK := rt.resolve(ip, hijacks)
			if got != want || gotOK != wantOK {
				t.Fatalf("resolve(%v, hijacks=%v) = AS%d %v, linear scan AS%d %v", ip, hijacks, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestResolveMatchesLinearOracle runs seeded random sequences of
// announcements, sub-prefix and exact hijacks, withdrawals, hijack purges
// and forks over a small address space, so prefixes nest, repeat across
// origins and tie on length, and after every step compares each live
// table with the linear scan. Non-normalised prefixes (host bits set),
// which contain no address, are announced too.
func TestResolveMatchesLinearOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		randPrefix := func() Prefix {
			base := IP(10<<24 | r.Intn(1<<16))
			l := 12 + r.Intn(21)
			if r.Intn(20) == 0 {
				return Prefix{Base: base | 1, Len: l} // host bits left set
			}
			p, err := NewPrefix(base, l)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		tables := []*Topology{New()}
		for step := 0; step < 300; step++ {
			topo := tables[r.Intn(len(tables))]
			rt := topo.Routes()
			var existing *Route
			if len(rt.routes) > 0 {
				existing = &rt.routes[r.Intn(len(rt.routes))]
			}
			switch op := r.Intn(12); {
			case op < 3:
				p, origin, hijack := randPrefix(), ASN(1+r.Intn(4)), r.Intn(4) == 0
				dup := slices.ContainsFunc(rt.routes, func(x Route) bool {
					return x.Prefix == p && x.Origin == origin && x.Hijack == hijack
				})
				if err := rt.Announce(p, origin, hijack); (err != nil) != dup {
					t.Fatalf("seed %d: Announce(%v, AS%d, %v) = %v, duplicate %v", seed, p, origin, hijack, err, dup)
				}
			case op < 5 && existing != nil:
				// A competing announcement of an existing prefix: an
				// equal-length tie the older route must win.
				_ = rt.Announce(existing.Prefix, ASN(1+r.Intn(6)), r.Intn(2) == 0)
			case op < 7:
				_ = rt.HijackPrefix(ASN(600+r.Intn(3)), randPrefix())
			case op < 9 && existing != nil:
				rt.Withdraw(existing.Prefix, existing.Origin, existing.Hijack)
			case op < 10:
				rt.Withdraw(randPrefix(), ASN(1+r.Intn(4)), r.Intn(2) == 0)
			case op < 11 && r.Intn(3) == 0:
				rt.WithdrawHijacks()
			case len(tables) < 4:
				tables = append(tables, topo.Fork())
			}
			for _, tp := range tables {
				rt := tp.Routes()
				var probes []IP
				for k := 0; k < 24; k++ {
					if k%2 == 0 && len(rt.routes) > 0 {
						p := rt.routes[r.Intn(len(rt.routes))].Prefix
						probes = append(probes, p.Base+IP(r.Intn(1<<10)))
					} else {
						probes = append(probes, IP(10<<24|r.Intn(1<<17)))
					}
				}
				checkAgainstOracle(t, rt, probes)
			}
		}
	}
}

// TestForksHijackConcurrently runs what concurrent studies of one seed
// do: each goroutine forks the same shared topology, hijacks into its
// fork, resolves against it and purges, while the others do the same.
// Under the race detector (make race) it proves that forks share no
// mutable index state with their parent or each other.
func TestForksHijackConcurrently(t *testing.T) {
	base := New()
	var probes []IP
	block := IP(10 << 24)
	for asn := ASN(1); asn <= 60; asn++ {
		var prefixes []Prefix
		for k := 0; k < 4; k++ {
			p, err := NewPrefix(block, 20)
			if err != nil {
				t.Fatal(err)
			}
			prefixes = append(prefixes, p)
			probes = append(probes, block+7, block+1<<11+7)
			block += 1 << 12
		}
		if err := base.AddAS(AS{Number: asn, Org: "o", Prefixes: prefixes}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				fork := base.Fork()
				rt := fork.Routes()
				for asn := ASN(1 + g); asn <= 60; asn += 4 {
					victim, _ := fork.AS(asn)
					if err := rt.HijackPrefix(ASN(600+g), victim.Prefixes[round%4]); err != nil {
						t.Error(err)
						return
					}
				}
				for _, ip := range probes {
					got, _ := fork.Resolve(ip)
					if want, _ := resolveLinear(rt, ip, true); got != want {
						t.Errorf("goroutine %d: Resolve(%v) = AS%d, linear scan AS%d", g, ip, got, want)
						return
					}
					if got, _ := base.Resolve(ip); got >= 600 {
						t.Errorf("goroutine %d: hijack reached the shared parent at %v", g, ip)
						return
					}
				}
				rt.WithdrawHijacks()
			}
		}(g)
	}
	wg.Wait()
}
