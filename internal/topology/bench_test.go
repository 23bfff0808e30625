package topology

import (
	"testing"
)

func benchTable(b *testing.B, hijacks bool) (*RouteTable, []IP) {
	b.Helper()
	rt := NewRouteTable()
	var probes []IP
	base := uint32(10 << 24)
	for asn := ASN(1); asn <= 500; asn++ {
		for k := 0; k < 10; k++ {
			p, err := NewPrefix(IP(base), 20)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Announce(p, asn, false); err != nil {
				b.Fatal(err)
			}
			if hijacks && k == 0 && asn%10 == 0 {
				if err := rt.HijackPrefix(9999, p); err != nil {
					b.Fatal(err)
				}
			}
			probes = append(probes, IP(base+7))
			base += 1 << 12
		}
	}
	return rt, probes
}

// BenchmarkResolve measures longest-prefix-match over a 5,000-route table.
func BenchmarkResolve(b *testing.B) {
	rt, probes := benchTable(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rt.Resolve(probes[i%len(probes)]); !ok {
			b.Fatal("unresolved")
		}
	}
}

// BenchmarkResolveWithHijacks adds active hijack routes to the table.
func BenchmarkResolveWithHijacks(b *testing.B) {
	rt, probes := benchTable(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rt.Resolve(probes[i%len(probes)]); !ok {
			b.Fatal("unresolved")
		}
	}
}

// BenchmarkHijackPrefix measures announcement of a sub-prefix hijack.
func BenchmarkHijackPrefix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := NewRouteTable()
		p, _ := NewPrefix(IP(10<<24), 20)
		if err := rt.Announce(p, 1, false); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := rt.HijackPrefix(666, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFork measures forking a population-sized topology: 14,450 /20
// routes, about the synthetic snapshot's 14,452. Every study construction
// forks its seed's topology once, copying its routes and route index; a
// spatial attack then announces into the copy (here one sub-prefix
// hijack).
func BenchmarkFork(b *testing.B) {
	topo := New()
	block := IP(10 << 24)
	for asn := ASN(1); asn <= 1445; asn++ {
		prefixes := make([]Prefix, 10)
		for k := range prefixes {
			prefixes[k] = Prefix{Base: block, Len: 20}
			block += 1 << 12
		}
		if err := topo.AddAS(AS{Number: asn, Org: "o", Prefixes: prefixes}); err != nil {
			b.Fatal(err)
		}
	}
	victim, _ := topo.AS(700)
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if topo.Fork().Routes() == topo.Routes() {
				b.Fatal("fork shares the route table")
			}
		}
	})
	b.Run("fork+hijack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := topo.Fork().Routes().HijackPrefix(666, victim.Prefixes[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
