// Package topology models the slice of the Internet the paper's spatial
// attacks operate on: IPv4 addresses, BGP prefixes, autonomous systems,
// organizations (which may own several ASes — the paper shows Amazon and
// AliBaba do), route tables with longest-prefix-match selection, and the
// hijack primitive (announcing more-specific prefixes than the victim, the
// mechanism of both the 2008 YouTube and 2014 Canadian-ISP incidents the
// paper cites).
package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order. The simulation assigns synthetic
// addresses; onion (Tor) nodes carry no IP and are handled out of band, as
// the paper treats Tor as a single pseudo-AS.
type IP uint32

// String renders dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP parses dotted-quad IPv4 notation.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("topology: malformed IP %q", s)
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("topology: malformed IP octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

// Prefix is a CIDR block: the high Len bits of Base identify the network.
type Prefix struct {
	Base IP
	Len  int // 0..32
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%v/%d", p.Base.Mask(p.Len), p.Len)
}

// Mask zeroes the host bits of ip for a given prefix length.
func (ip IP) Mask(length int) IP {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ip
	}
	return ip & IP(^uint32(0)<<(32-length))
}

// NewPrefix builds a normalized prefix (host bits cleared). Length must be
// within [0, 32].
func NewPrefix(base IP, length int) (Prefix, error) {
	if length < 0 || length > 32 {
		return Prefix{}, fmt.Errorf("topology: prefix length %d out of range", length)
	}
	return Prefix{Base: base.Mask(length), Len: length}, nil
}

// ParsePrefix parses CIDR notation like "203.0.113.0/24".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("topology: malformed prefix %q (missing /)", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	length, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("topology: malformed prefix length in %q", s)
	}
	return NewPrefix(ip, length)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip.Mask(p.Len) == p.Base
}

// Halves splits the prefix into its two more-specific children. This is the
// classic sub-prefix hijack: announcing both halves of a victim /n as /n+1
// wins longest-prefix-match everywhere. Splitting a /32 is impossible.
func (p Prefix) Halves() (Prefix, Prefix, error) {
	if p.Len >= 32 {
		return Prefix{}, Prefix{}, fmt.Errorf("topology: cannot split /32 prefix %v", p)
	}
	lo := Prefix{Base: p.Base, Len: p.Len + 1}
	hi := Prefix{Base: p.Base | IP(1<<(31-p.Len)), Len: p.Len + 1}
	return lo, hi, nil
}
