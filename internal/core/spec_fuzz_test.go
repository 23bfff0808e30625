package core

import (
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzParseSpec feeds arbitrary documents to the spec parser, the admission
// boundary of partitiond: it must return an error or a spec that passes
// Validate, keeps its trace days and grid size within their caps, and whose
// canonical form marshals and re-parses to the same fingerprint. It must
// never panic.
func FuzzParseSpec(f *testing.F) {
	def, err := json.Marshal(Spec{Schema: SpecSchemaV1, Run: Command{Verb: "experiment", Name: "all"}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add(def[:len(def)/2])
	doc := func(field string, v int) []byte {
		return []byte(fmt.Sprintf(`{"schema":"spec.v1","run":{"verb":"experiment","name":"all"},"seed":1,%q:%d,"faults":{}}`, field, v))
	}
	for _, c := range []struct {
		field string
		cap   int
	}{
		{"tablev_trace_days", maxSpecTraceDays},
		{"figure6a_days", maxSpecTraceDays},
		{"grid_size", maxSpecGridSize},
	} {
		f.Add(doc(c.field, c.cap))
		f.Add(doc(c.field, c.cap+1))
		f.Add(doc(c.field, -1))
	}
	f.Add(doc("shards", -3))
	f.Add([]byte(`{"schema":"spec.v1","run":{"verb":"conquer","name":"all"},"seed":1,"faults":{}}`))
	f.Add([]byte(`{"schema":"spec.v1","run":{"verb":"experiment","name":"nosuch"},"seed":1,"faults":{}}`))
	f.Add([]byte(`{"schema":"spec.v1","run":{"verb":"attack","name":"spatial"},"seed":7,"grid_size":30,"shards":4,"shard_workers":2,"faults":{}}`))
	f.Add([]byte(`{"schema":"spec.v1","run":`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec Validate refuses: %v", err)
		}
		if s.TableVTraceDays > maxSpecTraceDays || s.Figure6aDays > maxSpecTraceDays || s.GridSize > maxSpecGridSize {
			t.Fatalf("ParseSpec accepted a spec over its caps: %+v", s)
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("accepted spec has no fingerprint: %v", err)
		}
		canonical, err := json.Marshal(s.Canonical())
		if err != nil {
			t.Fatalf("canonical form does not marshal: %v", err)
		}
		back, err := ParseSpec(canonical)
		if err != nil {
			t.Fatalf("canonical form %s does not re-parse: %v", canonical, err)
		}
		if got, err := back.Fingerprint(); err != nil || got != fp {
			t.Fatalf("canonical form %s fingerprints %s (%v), want %s", canonical, got, err, fp)
		}
	})
}
