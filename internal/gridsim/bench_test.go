package gridsim

import (
	"testing"

	"repro/internal/faults"
)

// BenchmarkAdvanceBlockInterval measures one block interval of grid
// dynamics at the paper's two scales.
func BenchmarkAdvanceBlockInterval(b *testing.B) {
	for _, size := range []int{25, 100} {
		name := "25x25"
		if size == 100 {
			name = "100x100"
		}
		b.Run(name, func(b *testing.B) {
			g, err := FromConfig(Config{
				Size: size, SpanRatio: 2.0, FailureRate: 0.10,
				AttackerShare: 0.30, AttackerRow: 7, AttackerCol: 7,
				BoundaryRadius: 5, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Advance(g.StepsPerBlock())
			}
		})
	}
}

// BenchmarkAdvanceFaulty measures one block interval of the gossip kernel
// with its fault checks live (communicate with a non-nil injector) on a
// 50×50 grid under each fault preset: churn only, flapping links plus
// chaos loss, and the full link-fault mix plus churn.
func BenchmarkAdvanceFaulty(b *testing.B) {
	for _, sc := range []faults.Scenario{faults.Churny(), faults.Flaky(), faults.HijackRecovery()} {
		b.Run(sc.Name, func(b *testing.B) {
			g, err := FromConfig(Config{
				Size: 50, SpanRatio: 2.0, FailureRate: 0.10,
				AttackerShare: 0.30, AttackerRow: 7, AttackerCol: 7,
				BoundaryRadius: 5, Seed: 1, Faults: sc,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Advance(g.StepsPerBlock())
			}
		})
	}
}

// BenchmarkSnapshot measures state summarization of the full-scale grid.
func BenchmarkSnapshot(b *testing.B) {
	g, err := FromConfig(Config{Size: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g.Advance(g.StepsPerBlock() * 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := g.Snapshot()
		if s.MaxHeight < 0 {
			b.Fatal("bad snapshot")
		}
	}
}
