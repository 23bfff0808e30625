package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// populationDigest hashes every field Generate produces: each NodeRecord
// field in node order, each ASRow field in row order, then every route in
// Topo's table in announcement (seq) order. The route table exposes no
// iterator, and the pin must not need one, so the routes are read through
// reflection: the table's routes slice, each Route's exported fields and
// its unexported seq.
func populationDigest(p *Population) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putInt := func(v int64) { put(uint64(v)) }
	putFloat := func(v float64) { put(math.Float64bits(v)) }
	putStr := func(s string) {
		putInt(int64(len(s)))
		h.Write([]byte(s))
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	putPrefix := func(pfx topology.Prefix) {
		put(uint64(pfx.Base))
		putInt(int64(pfx.Len))
	}

	putInt(int64(len(p.Nodes)))
	for _, n := range p.Nodes {
		putInt(int64(n.ID))
		putInt(int64(n.Family))
		putInt(int64(n.ASN))
		putStr(n.Org)
		put(uint64(n.IP))
		putPrefix(n.Prefix)
		putFloat(n.LinkSpeedMbs)
		putFloat(n.LatencyIndex)
		putFloat(n.UptimeIndex)
		putBool(n.Up)
		putStr(n.Version)
		putInt(int64(n.Class))
		putInt(int64(n.MeanCatchup))
	}
	putInt(int64(len(p.ASRows)))
	for _, r := range p.ASRows {
		putInt(int64(r.ASN))
		putStr(r.Name)
		putStr(r.Org)
		putInt(int64(r.Nodes))
		putInt(int64(r.Prefixes))
		putFloat(r.Concentration)
		putStr(r.Country)
	}
	routes := reflect.ValueOf(p.Topo.Routes()).Elem().FieldByName("routes")
	putInt(int64(routes.Len()))
	for i := 0; i < routes.Len(); i++ {
		r := routes.Index(i)
		pfx := r.FieldByName("Prefix")
		put(pfx.FieldByName("Base").Uint())
		putInt(pfx.FieldByName("Len").Int())
		putInt(r.FieldByName("Origin").Int())
		putBool(r.FieldByName("Hijack").Bool())
		putInt(r.FieldByName("seq").Int())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPopulationGolden pins the synthetic population bit for bit across
// commits, for seeds 1 to 3: every node record, every AS row and the whole
// route table. TestGenerateDeterministic only compares two builds in one
// process; this catches a change to any draw, to the Multinomial splits or
// to topology registration.
func TestPopulationGolden(t *testing.T) {
	want := map[int64]string{
		1: "cc0c6e7d9839dfd58ea14163ed69688181052f583a9477c3fbed7b0191326d5f",
		2: "e216402dc47ab8aa0eea07deb61d447cb0eb32e6430e9a21e135d404449a6db1",
		3: "fd83562fb175763c1f6faf11c76ed314f442a7e318b24390b9c5c6c325a7e4b7",
	}
	for seed := int64(1); seed <= 3; seed++ {
		p, err := Generate(seed)
		if err != nil {
			t.Fatalf("Generate(%d): %v", seed, err)
		}
		if got := populationDigest(p); got != want[seed] {
			t.Errorf("seed %d: population digest = %s, want %s", seed, got, want[seed])
		}
	}
}
