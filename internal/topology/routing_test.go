package topology

import (
	"errors"
	"testing"
	"testing/quick"
)

// hijacked reports whether ip is currently routed to a different AS than
// its legitimate owner.
func hijacked(rt *RouteTable, ip IP) bool {
	now, okNow := rt.Resolve(ip)
	legit, okLegit := rt.ResolveLegit(ip)
	return okNow && okLegit && now != legit
}

func mustPrefix(t *testing.T, s string) Prefix {
	t.Helper()
	p, err := ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustIP(t *testing.T, s string) IP {
	t.Helper()
	ip, err := ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestRouteTableLongestPrefixMatch(t *testing.T) {
	rt := NewRouteTable()
	if err := rt.Announce(mustPrefix(t, "10.0.0.0/8"), 100, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.Announce(mustPrefix(t, "10.1.0.0/16"), 200, false); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		ip   string
		want ASN
	}{
		{"10.1.2.3", 200},
		{"10.2.2.3", 100},
	}
	for _, tt := range tests {
		got, ok := rt.Resolve(mustIP(t, tt.ip))
		if !ok || got != tt.want {
			t.Errorf("Resolve(%s) = %v, %v; want %v", tt.ip, got, ok, tt.want)
		}
	}
	if _, ok := rt.Resolve(mustIP(t, "192.168.0.1")); ok {
		t.Error("uncovered IP should not resolve")
	}
}

func TestRouteTableDuplicateAnnounce(t *testing.T) {
	rt := NewRouteTable()
	p := mustPrefix(t, "10.0.0.0/8")
	if err := rt.Announce(p, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.Announce(p, 100, false); err == nil {
		t.Error("duplicate announce: want error")
	}
	// Same prefix, different origin is allowed (MOAS conflict).
	if err := rt.Announce(p, 200, false); err != nil {
		t.Errorf("MOAS announce: %v", err)
	}
	// Oldest announcement wins the tie.
	got, _ := rt.Resolve(mustIP(t, "10.1.1.1"))
	if got != 100 {
		t.Errorf("tie-break = AS%d, want AS100 (oldest)", got)
	}
}

func TestHijackCapturesVictimPrefix(t *testing.T) {
	rt := NewRouteTable()
	victim := mustPrefix(t, "203.0.113.0/24")
	if err := rt.Announce(victim, 100, false); err != nil {
		t.Fatal(err)
	}
	ip := mustIP(t, "203.0.113.55")
	if hijacked(rt, ip) {
		t.Fatal("fresh table reports hijack")
	}
	if err := rt.HijackPrefix(666, victim); err != nil {
		t.Fatal(err)
	}
	got, ok := rt.Resolve(ip)
	if !ok || got != 666 {
		t.Errorf("post-hijack Resolve = AS%d, want AS666", got)
	}
	if legit, _ := rt.ResolveLegit(ip); legit != 100 {
		t.Errorf("ResolveLegit = AS%d, want AS100", legit)
	}
	if !hijacked(rt, ip) {
		t.Error("Hijacked should report true")
	}
	if rt.HijackCount() != 2 {
		t.Errorf("HijackCount = %d, want 2 (two halves)", rt.HijackCount())
	}
}

func TestHijackSlash32DoesNotDisplaceOlderExact(t *testing.T) {
	rt := NewRouteTable()
	host := mustPrefix(t, "198.51.100.7/32")
	if err := rt.Announce(host, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.HijackPrefix(666, host); err != nil {
		t.Fatal(err)
	}
	got, _ := rt.Resolve(mustIP(t, "198.51.100.7"))
	if got != 100 {
		t.Errorf("exact-prefix hijack displaced older route: AS%d", got)
	}
}

func TestWithdrawHijacksRestoresRouting(t *testing.T) {
	rt := NewRouteTable()
	victim := mustPrefix(t, "203.0.113.0/24")
	if err := rt.Announce(victim, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.HijackPrefix(666, victim); err != nil {
		t.Fatal(err)
	}
	ip := mustIP(t, "203.0.113.55")
	if purged := rt.WithdrawHijacks(); purged != 2 {
		t.Errorf("purged = %d, want 2", purged)
	}
	got, _ := rt.Resolve(ip)
	if got != 100 {
		t.Errorf("post-purge Resolve = AS%d, want AS100", got)
	}
	if rt.HijackCount() != 0 {
		t.Error("hijacks remain after purge")
	}
}

func TestWithdrawSpecificRoute(t *testing.T) {
	rt := NewRouteTable()
	p := mustPrefix(t, "10.0.0.0/8")
	if err := rt.Announce(p, 100, false); err != nil {
		t.Fatal(err)
	}
	if n := rt.Withdraw(p, 100, false); n != 1 {
		t.Errorf("Withdraw = %d, want 1", n)
	}
	if _, ok := rt.Resolve(mustIP(t, "10.1.1.1")); ok {
		t.Error("withdrawn route still resolves")
	}
	if n := rt.Withdraw(p, 100, false); n != 0 {
		t.Errorf("second Withdraw = %d, want 0", n)
	}
}

func TestTopologyRegistry(t *testing.T) {
	topo := New()
	err := topo.AddAS(AS{
		Number: 16509, Name: "AMAZON-02", Org: "Amazon.com, Inc",
		Prefixes: []Prefix{mustPrefix(t, "52.0.0.0/8")}, Country: "US",
	})
	if err != nil {
		t.Fatal(err)
	}
	err = topo.AddAS(AS{
		Number: 14618, Name: "AMAZON-AES", Org: "Amazon.com, Inc",
		Prefixes: []Prefix{mustPrefix(t, "54.0.0.0/8")}, Country: "US",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddAS(AS{Number: 16509, Org: "dup"}); !errors.Is(err, ErrDuplicateAS) {
		t.Errorf("duplicate AS err = %v", err)
	}
	org, ok := topo.orgs["Amazon.com, Inc"]
	if !ok || len(org.ASNs) != 2 {
		t.Fatalf("org lookup failed: %+v, %v", org, ok)
	}
	if got := len(topo.ASesOfOrg("Amazon.com, Inc")); got != 2 {
		t.Errorf("ASesOfOrg = %d, want 2", got)
	}
	if len(topo.ases) != 2 || len(topo.orgs) != 1 {
		t.Errorf("counts: %d ASes, %d orgs", len(topo.ases), len(topo.orgs))
	}
	asn, ok := topo.Resolve(mustIP(t, "52.1.2.3"))
	if !ok || asn != 16509 {
		t.Errorf("Resolve = %v, %v", asn, ok)
	}
	if got := topo.ASesInCountry("US"); len(got) != 2 {
		t.Errorf("ASesInCountry = %v", got)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestResolveConsistencyProperty(t *testing.T) {
	// Property: without hijacks, Resolve and ResolveLegit agree everywhere;
	// after a hijack of a /24, exactly the addresses inside it flip.
	f := func(probe uint32) bool {
		rt := NewRouteTable()
		p8 := Prefix{Base: 0x0A000000, Len: 8}   // 10.0.0.0/8
		p24 := Prefix{Base: 0x0A010200, Len: 24} // 10.1.2.0/24
		if rt.Announce(p8, 100, false) != nil {
			return false
		}
		if rt.Announce(p24, 200, false) != nil {
			return false
		}
		ip := IP(probe)
		a, okA := rt.Resolve(ip)
		b, okB := rt.ResolveLegit(ip)
		if okA != okB || (okA && a != b) {
			return false
		}
		if rt.HijackPrefix(666, p24) != nil {
			return false
		}
		if p24.Contains(ip) {
			got, ok := rt.Resolve(ip)
			return ok && got == 666 && hijacked(rt, ip)
		}
		got, ok := rt.Resolve(ip)
		legit, okL := rt.ResolveLegit(ip)
		return ok == okL && (!ok || got == legit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddASRejectsRepeatedPrefix(t *testing.T) {
	topo := New()
	p := mustPrefix(t, "10.0.0.0/20")
	q := mustPrefix(t, "10.0.16.0/20")
	if err := topo.AddAS(AS{Number: 100, Org: "o", Prefixes: []Prefix{p, q, p}}); err == nil {
		t.Fatal("AS listing a prefix twice accepted")
	}
	// The rejected AS left nothing behind, so a corrected retry succeeds.
	if len(topo.ases) != 0 || len(topo.orgs) != 0 {
		t.Errorf("rejected AS registered: %d ASes, %d orgs", len(topo.ases), len(topo.orgs))
	}
	if _, ok := topo.Resolve(mustIP(t, "10.0.0.1")); ok {
		t.Error("rejected AS announced a route")
	}
	if err := topo.AddAS(AS{Number: 100, Org: "o", Prefixes: []Prefix{p, q}}); err != nil {
		t.Fatalf("corrected AddAS: %v", err)
	}
	if asn, ok := topo.Resolve(mustIP(t, "10.0.16.1")); !ok || asn != 100 {
		t.Errorf("Resolve = AS%d, %v; want AS100", asn, ok)
	}
}

func TestDuplicateHijackAnnounceErrors(t *testing.T) {
	rt := NewRouteTable()
	victim := mustPrefix(t, "203.0.113.0/24")
	if err := rt.Announce(victim, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.HijackPrefix(666, victim); err != nil {
		t.Fatal(err)
	}
	if err := rt.HijackPrefix(666, victim); err == nil {
		t.Error("repeated hijack accepted")
	}
	lo, _, err := victim.Halves()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Announce(lo, 666, true); err == nil {
		t.Error("duplicate hijack Announce accepted")
	}
	// The victim's own exact prefix as a hijack is a different tuple.
	if err := rt.Announce(victim, 100, true); err != nil {
		t.Errorf("hijack of the victim's tuple with Hijack set: %v", err)
	}
	if rt.HijackCount() != 3 {
		t.Errorf("HijackCount = %d, want 3", rt.HijackCount())
	}
}

func TestWithdrawThenReannounce(t *testing.T) {
	topo := New()
	p := mustPrefix(t, "10.0.0.0/20")
	if err := topo.AddAS(AS{Number: 100, Org: "o", Prefixes: []Prefix{p}}); err != nil {
		t.Fatal(err)
	}
	rt := topo.Routes()
	if n := rt.Withdraw(p, 100, false); n != 1 {
		t.Fatalf("Withdraw = %d, want 1", n)
	}
	if err := rt.Announce(p, 100, false); err != nil {
		t.Errorf("re-announce after Withdraw: %v", err)
	}
	if err := rt.HijackPrefix(666, p); err != nil {
		t.Fatal(err)
	}
	if n := rt.WithdrawHijacks(); n != 2 {
		t.Fatalf("WithdrawHijacks = %d, want 2", n)
	}
	if err := rt.HijackPrefix(666, p); err != nil {
		t.Errorf("re-hijack after WithdrawHijacks: %v", err)
	}
	if asn, _ := topo.Resolve(mustIP(t, "10.0.0.1")); asn != 666 {
		t.Errorf("Resolve = AS%d, want AS666", asn)
	}
}

func TestResolveEqualLengthOlderWins(t *testing.T) {
	// Two ASes registering the same prefix (a MOAS conflict): the AS added
	// first announced first and wins; withdrawing and re-announcing its
	// route makes it the younger one.
	topo := New()
	p := mustPrefix(t, "10.0.0.0/20")
	ip := mustIP(t, "10.0.0.1")
	for _, asn := range []ASN{100, 200} {
		if err := topo.AddAS(AS{Number: asn, Org: "o", Prefixes: []Prefix{p}}); err != nil {
			t.Fatal(err)
		}
	}
	if asn, _ := topo.Resolve(ip); asn != 100 {
		t.Errorf("Resolve = AS%d, want AS100 (older)", asn)
	}
	// An exact-prefix hijack is younger than both.
	if err := topo.Routes().Announce(p, 666, true); err != nil {
		t.Fatal(err)
	}
	if asn, _ := topo.Resolve(ip); asn != 100 {
		t.Errorf("Resolve after exact hijack = AS%d, want AS100", asn)
	}
	topo.Routes().Withdraw(p, 100, false)
	if err := topo.Routes().Announce(p, 100, false); err != nil {
		t.Fatal(err)
	}
	if asn, _ := topo.Resolve(ip); asn != 200 {
		t.Errorf("Resolve after re-announce = AS%d, want AS200 (now older)", asn)
	}
}

func TestForkHijacksNeverReachParent(t *testing.T) {
	topo := New()
	p := mustPrefix(t, "10.0.0.0/20")
	if err := topo.AddAS(AS{Number: 100, Org: "o", Prefixes: []Prefix{p}}); err != nil {
		t.Fatal(err)
	}
	ip := mustIP(t, "10.0.0.1")
	for i := 0; i < 2; i++ {
		fork := topo.Fork()
		if err := fork.Routes().HijackPrefix(666, p); err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		if asn, _ := fork.Resolve(ip); asn != 666 {
			t.Errorf("fork %d Resolve = AS%d, want AS666", i, asn)
		}
		if asn, _ := topo.Resolve(ip); asn != 100 {
			t.Errorf("parent Resolve after fork %d hijack = AS%d, want AS100", i, asn)
		}
		if n := topo.Routes().HijackCount(); n != 0 {
			t.Errorf("parent HijackCount = %d after fork %d hijack", n, i)
		}
	}
}
