package dataset

import (
	"testing"
	"time"
)

// BenchmarkGenerate measures full population synthesis (13,635 nodes,
// 1,660 ASes, topology included).
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDay measures one day of the lag process at 10-minute
// sampling over the full population.
func BenchmarkTraceDay(b *testing.B) {
	pop, err := Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pop.RunTrace(TraceConfig{
			Duration:    24 * time.Hour,
			SampleEvery: 10 * time.Minute,
			Seed:        int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDayTracked adds the per-AS sync tracking Figure 8 needs.
func BenchmarkTraceDayTracked(b *testing.B) {
	pop, err := Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pop.RunTrace(TraceConfig{
			Duration:        24 * time.Hour,
			SampleEvery:     10 * time.Minute,
			Seed:            int64(i),
			TrackSyncedByAS: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxVulnerable measures the Table V optimization over a week of
// samples.
func BenchmarkMaxVulnerable(b *testing.B) {
	pop, err := Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := pop.RunTrace(TraceConfig{
		Duration:             7 * 24 * time.Hour,
		SampleEvery:          10 * time.Minute,
		Seed:                 3,
		VulnerabilityWindows: DefaultVulnerabilityWindows(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, err := tr.MaxVulnerableParallel(1); err != nil || len(rows) != 9 {
			b.Fatal("bad rows")
		}
	}
}
