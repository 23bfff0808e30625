// Package vulndb embeds the slice of the National Vulnerability Database
// the paper's logical-partitioning analysis uses (§V-D): known CVEs against
// Bitcoin client software, keyed by the version ranges they affect. The
// paper mapped the 288 observed client versions to NVD and found 36
// reported vulnerabilities; this package embeds the ones the paper names
// plus the well-known historical set, and implements the version-matching
// join.
package vulndb

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a parsed Bitcoin Core style version number.
type Version struct {
	Major, Minor, Patch, Sub int
}

// ParseVersion extracts a version from client identifiers like
// "Bitcoin Core v0.15.0.1", "/Satoshi:0.16.0/", or "v0.14.2". It returns an
// error for clients without a Core-style version (forks, alternative
// implementations).
func ParseVersion(s string) (Version, error) {
	i := strings.IndexAny(s, "0123456789")
	if i < 0 {
		return Version{}, fmt.Errorf("vulndb: no version digits in %q", s)
	}
	// Versions must look like dotted numerics starting at the first digit.
	body := s[i:]
	if j := strings.IndexFunc(body, func(r rune) bool {
		return r != '.' && (r < '0' || r > '9')
	}); j >= 0 {
		body = body[:j]
	}
	parts := strings.Split(strings.Trim(body, "."), ".")
	if len(parts) < 2 {
		return Version{}, fmt.Errorf("vulndb: unparseable version in %q", s)
	}
	var nums [4]int
	for k := 0; k < len(parts) && k < 4; k++ {
		n, err := strconv.Atoi(parts[k])
		if err != nil {
			return Version{}, fmt.Errorf("vulndb: version component %q in %q", parts[k], s)
		}
		nums[k] = n
	}
	return Version{nums[0], nums[1], nums[2], nums[3]}, nil
}

// Compare returns -1, 0, or 1 as v is before, equal to, or after other.
func (v Version) Compare(other Version) int {
	a := [4]int{v.Major, v.Minor, v.Patch, v.Sub}
	b := [4]int{other.Major, other.Minor, other.Patch, other.Sub}
	for i := 0; i < 4; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// String renders the dotted form, omitting a zero Sub component.
func (v Version) String() string {
	if v.Sub != 0 {
		return fmt.Sprintf("%d.%d.%d.%d", v.Major, v.Minor, v.Patch, v.Sub)
	}
	return fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Patch)
}

// Severity is the CVSS qualitative band.
type Severity int

// Severity bands.
const (
	SeverityUnknown Severity = iota
	SeverityLow
	SeverityMedium
	SeverityHigh
	SeverityCritical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "LOW"
	case SeverityMedium:
		return "MEDIUM"
	case SeverityHigh:
		return "HIGH"
	case SeverityCritical:
		return "CRITICAL"
	default:
		return "UNKNOWN"
	}
}

// CVE is one vulnerability record.
type CVE struct {
	ID        string
	Published string // year-month as recorded by NVD
	CVSS      float64
	Severity  Severity
	// Introduced (inclusive) and Fixed (exclusive) bound the affected Core
	// versions. An all-zero Fixed means unfixed at the paper's collection
	// date (affects every version — CVE-2018-17144 before disclosure).
	Introduced Version
	Fixed      Version
	Summary    string
}

// Affects reports whether the CVE applies to the given Core version.
func (c CVE) Affects(v Version) bool {
	if v.Compare(c.Introduced) < 0 {
		return false
	}
	if (c.Fixed == Version{}) {
		return true
	}
	return v.Compare(c.Fixed) < 0
}

// DB is a queryable CVE collection.
type DB struct {
	cves []CVE
}

// New returns the embedded database: the CVEs named in §V-D plus the
// canonical historical Bitcoin Core set.
func New() *DB {
	return &DB{cves: []CVE{
		{
			ID: "CVE-2018-17144", Published: "2018-09", CVSS: 7.5, Severity: SeverityHigh,
			Introduced: Version{0, 14, 0, 0}, Fixed: Version{},
			Summary: "Remote denial of service (and potential inflation) via duplicate inputs; unfixed across all deployed versions at collection time",
		},
		{
			ID: "CVE-2017-9230", Published: "2017-05", CVSS: 7.5, Severity: SeverityHigh,
			Introduced: Version{0, 1, 0, 0}, Fixed: Version{},
			Summary: "Proof-of-work design weakness permitting chainwork manipulation claims",
		},
		{
			ID: "CVE-2013-5700", Published: "2013-09", CVSS: 5.0, Severity: SeverityMedium,
			Introduced: Version{0, 8, 0, 0}, Fixed: Version{0, 8, 3, 0},
			Summary: "Remote peers can crash bitcoind via bloom filter on unusual transactions",
		},
		{
			ID: "CVE-2013-4627", Published: "2013-07", CVSS: 5.0, Severity: SeverityMedium,
			Introduced: Version{0, 0, 0, 0}, Fixed: Version{0, 8, 3, 0},
			Summary: "Memory exhaustion via flooded tx message data",
		},
		{
			ID: "CVE-2013-4165", Published: "2013-08", CVSS: 4.3, Severity: SeverityMedium,
			Introduced: Version{0, 8, 0, 0}, Fixed: Version{0, 8, 3, 0},
			Summary: "Timing side channel in RPC password comparison",
		},
		{
			ID: "CVE-2013-2273", Published: "2013-03", CVSS: 5.0, Severity: SeverityMedium,
			Introduced: Version{0, 0, 0, 0}, Fixed: Version{0, 8, 0, 0},
			Summary: "Remote peers can discover wallet addresses via penny-flooding",
		},
		{
			ID: "CVE-2012-2459", Published: "2012-05", CVSS: 7.5, Severity: SeverityHigh,
			Introduced: Version{0, 0, 0, 0}, Fixed: Version{0, 6, 1, 0},
			Summary: "Block hash collision via duplicate merkle tree branches enables network-splitting invalid blocks",
		},
		{
			ID: "CVE-2012-1909", Published: "2012-03", CVSS: 5.0, Severity: SeverityMedium,
			Introduced: Version{0, 0, 0, 0}, Fixed: Version{0, 6, 0, 0},
			Summary: "Transaction overwriting of duplicate coinbases",
		},
		{
			ID: "CVE-2010-5139", Published: "2010-08", CVSS: 7.5, Severity: SeverityHigh,
			Introduced: Version{0, 0, 0, 0}, Fixed: Version{0, 3, 11, 0},
			Summary: "Value overflow incident: 184 billion BTC created in block 74638",
		},
	}}
}

// Lookup returns the record for an ID.
func (db *DB) Lookup(id string) (CVE, bool) {
	for _, c := range db.cves {
		if c.ID == id {
			return c, true
		}
	}
	return CVE{}, false
}

// Matching returns the CVEs affecting the given client version string.
// Non-Core clients (unparseable versions) match nothing and return the
// parse error.
func (db *DB) Matching(clientVersion string) ([]CVE, error) {
	v, err := ParseVersion(clientVersion)
	if err != nil {
		return nil, err
	}
	var out []CVE
	for _, c := range db.cves {
		if c.Affects(v) {
			out = append(out, c)
		}
	}
	return out, nil
}
