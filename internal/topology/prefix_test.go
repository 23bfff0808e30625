package topology

import (
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	tests := []struct {
		s    string
		want IP
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xFFFFFFFF},
		{"192.168.1.1", 0xC0A80101},
		{"10.0.0.1", 0x0A000001},
	}
	for _, tt := range tests {
		got, err := ParseIP(tt.s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", tt.s, err)
		}
		if got != tt.want {
			t.Errorf("ParseIP(%q) = %v, want %v", tt.s, got, tt.want)
		}
		if got.String() != tt.s {
			t.Errorf("String() = %q, want %q", got.String(), tt.s)
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q): want error", s)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("203.0.113.77/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "203.0.113.0/24" {
		t.Errorf("normalized = %q, want 203.0.113.0/24", p.String())
	}
	if p.Len != 24 {
		t.Errorf("Len = %d, want 24", p.Len)
	}
	for _, s := range []string{"1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "bad/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q): want error", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p, _ := ParsePrefix("10.1.0.0/16")
	in, _ := ParseIP("10.1.200.3")
	out, _ := ParseIP("10.2.0.0")
	if !p.Contains(in) {
		t.Error("10.1.200.3 should be in 10.1.0.0/16")
	}
	if p.Contains(out) {
		t.Error("10.2.0.0 should not be in 10.1.0.0/16")
	}
	zero, _ := NewPrefix(0, 0)
	if !zero.Contains(out) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixHalves(t *testing.T) {
	p, _ := ParsePrefix("10.0.0.0/8")
	lo, hi, err := p.Halves()
	if err != nil {
		t.Fatal(err)
	}
	if lo.String() != "10.0.0.0/9" {
		t.Errorf("lo = %v", lo)
	}
	if hi.String() != "10.128.0.0/9" {
		t.Errorf("hi = %v", hi)
	}
	host, _ := ParsePrefix("10.0.0.1/32")
	if _, _, err := host.Halves(); err == nil {
		t.Error("splitting /32: want error")
	}
}

func TestPrefixHalvesPartitionProperty(t *testing.T) {
	// Property: the two halves of a prefix exactly partition it — every IP in
	// the parent is in exactly one half, and IPs outside are in neither.
	f := func(base uint32, lenRaw uint8, probe uint32) bool {
		length := int(lenRaw % 32) // 0..31 so halving is legal
		p, err := NewPrefix(IP(base), length)
		if err != nil {
			return false
		}
		lo, hi, err := p.Halves()
		if err != nil {
			return false
		}
		ip := IP(probe)
		inParent := p.Contains(ip)
		inLo, inHi := lo.Contains(ip), hi.Contains(ip)
		if inParent {
			return inLo != inHi // exactly one
		}
		return !inLo && !inHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPrefixNormalizes(t *testing.T) {
	ip, _ := ParseIP("192.168.77.200")
	p, err := NewPrefix(ip, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ParseIP("192.168.0.0")
	if p.Base != want {
		t.Errorf("base = %v, want %v", p.Base, want)
	}
	if _, err := NewPrefix(ip, 40); err == nil {
		t.Error("length 40: want error")
	}
}
