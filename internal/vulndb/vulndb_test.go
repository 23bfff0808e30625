package vulndb

import (
	"testing"
	"testing/quick"
)

func TestParseVersion(t *testing.T) {
	tests := []struct {
		in      string
		want    Version
		wantErr bool
	}{
		{"Bitcoin Core v0.16.0", Version{0, 16, 0, 0}, false},
		{"Bitcoin Core v0.15.0.1", Version{0, 15, 0, 1}, false},
		{"/Satoshi:0.14.2/", Version{0, 14, 2, 0}, false},
		{"v0.8.3", Version{0, 8, 3, 0}, false},
		{"Falcon", Version{}, true},
		{"bcoin v1.0.0", Version{1, 0, 0, 0}, false},
		{"no digits here", Version{}, true},
		{"Satoshi variant 007", Version{}, true}, // "007" single component
	}
	for _, tt := range tests {
		got, err := ParseVersion(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseVersion(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseVersion(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestVersionCompare(t *testing.T) {
	tests := []struct {
		a, b Version
		want int
	}{
		{Version{0, 16, 0, 0}, Version{0, 15, 1, 0}, 1},
		{Version{0, 15, 0, 1}, Version{0, 15, 0, 0}, 1},
		{Version{0, 8, 3, 0}, Version{0, 8, 3, 0}, 0},
		{Version{0, 7, 9, 9}, Version{0, 8, 0, 0}, -1},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Compare(tt.a); got != -tt.want {
			t.Errorf("antisymmetry violated for %v, %v", tt.a, tt.b)
		}
	}
}

func TestVersionCompareProperty(t *testing.T) {
	// Property: Compare is antisymmetric and reflexive.
	f := func(a, b [4]uint8) bool {
		va := Version{int(a[0]), int(a[1]), int(a[2]), int(a[3])}
		vb := Version{int(b[0]), int(b[1]), int(b[2]), int(b[3])}
		if va.Compare(va) != 0 {
			return false
		}
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVersionString(t *testing.T) {
	if got := (Version{0, 15, 0, 1}).String(); got != "0.15.0.1" {
		t.Errorf("String = %q", got)
	}
	if got := (Version{0, 16, 0, 0}).String(); got != "0.16.0" {
		t.Errorf("String = %q", got)
	}
}

func TestDBLookupAndPaperCVEs(t *testing.T) {
	db := New()
	if len(db.cves) < 9 {
		t.Fatalf("db has %d CVEs", len(db.cves))
	}
	// The four CVEs named in §V-D are present.
	for _, id := range []string{"CVE-2018-17144", "CVE-2017-9230", "CVE-2013-5700", "CVE-2013-4627"} {
		if _, ok := db.Lookup(id); !ok {
			t.Errorf("%s missing", id)
		}
	}
	if _, ok := db.Lookup("CVE-0000-0000"); ok {
		t.Error("bogus CVE found")
	}
}

func TestAffectsRanges(t *testing.T) {
	db := New()
	dup, _ := db.Lookup("CVE-2018-17144")
	// "This vulnerability can be found in all client versions" (>= 0.14).
	for _, v := range []Version{{0, 14, 0, 0}, {0, 15, 1, 0}, {0, 16, 0, 0}} {
		if !dup.Affects(v) {
			t.Errorf("CVE-2018-17144 should affect %v", v)
		}
	}
	if dup.Affects(Version{0, 13, 2, 0}) {
		t.Error("CVE-2018-17144 should not affect 0.13.2")
	}

	bloom, _ := db.Lookup("CVE-2013-5700")
	if !bloom.Affects(Version{0, 8, 2, 0}) {
		t.Error("CVE-2013-5700 should affect 0.8.2")
	}
	if bloom.Affects(Version{0, 8, 3, 0}) {
		t.Error("CVE-2013-5700 fixed in 0.8.3")
	}
}

func TestMatching(t *testing.T) {
	db := New()
	modern, err := db.Matching("Bitcoin Core v0.16.0")
	if err != nil {
		t.Fatal(err)
	}
	// Modern versions are still hit by the unfixed pair.
	if len(modern) != 2 {
		t.Errorf("v0.16.0 matches %d CVEs, want 2 (unfixed pair)", len(modern))
	}
	ancient, err := db.Matching("Bitcoin Core v0.8.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ancient) <= len(modern) {
		t.Errorf("ancient client matches %d, modern %d; want strictly more", len(ancient), len(modern))
	}
	if _, err := db.Matching("Falcon"); err == nil {
		t.Error("non-Core client should return parse error")
	}
}

func TestSeverityString(t *testing.T) {
	tests := []struct {
		s    Severity
		want string
	}{
		{SeverityLow, "LOW"}, {SeverityMedium, "MEDIUM"}, {SeverityHigh, "HIGH"},
		{SeverityCritical, "CRITICAL"}, {SeverityUnknown, "UNKNOWN"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q", int(tt.s), got)
		}
	}
}
