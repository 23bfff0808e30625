package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md §5. Each experiment bench
// regenerates its table/figure from the calibrated synthetic dataset and
// reports the headline quantity as a custom metric, so `go test -bench=.`
// doubles as a smoke reproduction of the whole evaluation.

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/blockchain"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/gridsim"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/p2p"
)

// benchStudy is shared across benchmarks; the generator is deterministic
// and experiments do not mutate the population (spatial benches withdraw
// their hijacks). Construction is guarded by sync.Once so benchmarks that
// spin up goroutines (the Benchmark*Parallel variants) can never race on
// the cached state. The default study runs its internal sweeps
// sequentially (Workers: 1) so the headline benches keep measuring the
// single-core paths; parStudy is its parallel counterpart.
var (
	benchOnce     sync.Once
	benchStudy    *core.Study
	benchParStudy *core.Study
	benchErr      error
)

func benchOptions(workers int) []core.Option {
	return []core.Option{func(s *core.Study) {
		s.Opts = core.Options{TableVTraceDays: 1, Figure6aDays: 1, GridSize: 25, NetworkNodes: 150, Workers: workers}
	}}
}

func initStudies() {
	benchOnce.Do(func() {
		// The two studies share one memoized population (same seed).
		benchStudy, benchErr = core.New(1, benchOptions(1)...)
		if benchErr != nil {
			return
		}
		benchParStudy, benchErr = core.New(1, benchOptions(0)...)
	})
}

func study(b *testing.B) *core.Study {
	b.Helper()
	initStudies()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// parStudy returns the study whose internal sweeps fan out across all CPUs.
func parStudy(b *testing.B) *core.Study {
	b.Helper()
	initStudies()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchParStudy
}

func BenchmarkTableI(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var tor float64
	for i := 0; i < b.N; i++ {
		r := s.TableI()
		tor = r.Rows[2].LinkSpeed.Mean
	}
	b.ReportMetric(tor, "tor-mbps")
}

func BenchmarkTableII(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var top int
	for i := 0; i < b.N; i++ {
		r := s.TableII()
		top = r.ASes[0].Nodes
	}
	b.ReportMetric(float64(top), "as24940-nodes")
}

func BenchmarkTableIII(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var change float64
	for i := 0; i < b.N; i++ {
		r, err := s.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		change = r.Rows[0].ChangePct
	}
	b.ReportMetric(change, "change50-pct")
}

func BenchmarkTableIV(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := s.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		share = r.ThreeASShare
	}
	b.ReportMetric(share*100, "threeAS-hash-pct")
}

func BenchmarkTableV(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := s.TableV()
		if err != nil {
			b.Fatal(err)
		}
		frac = r.Rows[0].Frac[0]
	}
	b.ReportMetric(frac*100, "t5min-behind1-pct")
}

func BenchmarkTableVI(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var cell int
	for i := 0; i < b.N; i++ {
		r, err := s.TableVI()
		if err != nil {
			b.Fatal(err)
		}
		cell = r.Table.Seconds[4][2] // lambda=0.8, m=500; paper: 589
	}
	b.ReportMetric(float64(cell), "T(0.8,500)-sec")
}

func BenchmarkTableVII(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := s.TableVII()
		if err != nil {
			b.Fatal(err)
		}
		frac = r.TopFraction
	}
	b.ReportMetric(frac*100, "top5-synced-pct")
}

func BenchmarkTableVIII(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var share float64
	for i := 0; i < b.N; i++ {
		r := s.TableVIII()
		share = r.Rows[0].Share
	}
	b.ReportMetric(share*100, "v0.16.0-pct")
}

func BenchmarkFigure1(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure1Demo(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure2Demo(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var as50 int
	for i := 0; i < b.N; i++ {
		r, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		as50 = r.ASFor50
	}
	b.ReportMetric(float64(as50), "ases-for-50pct")
}

func BenchmarkFigure4(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var hetzner int
	for i := 0; i < b.N; i++ {
		r, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		hetzner = r.For95[24940]
	}
	b.ReportMetric(float64(hetzner), "as24940-hijacks-95pct")
}

func BenchmarkFigure5(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var captured int
	for i := 0; i < b.N; i++ {
		res, _, err := s.Figure5Demo()
		if err != nil {
			b.Fatal(err)
		}
		captured = res.CapturedAtRelease
	}
	b.ReportMetric(float64(captured), "victims-captured")
}

func BenchmarkFigure6(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	variants := []struct {
		name string
		v    core.Figure6Variant
	}{
		{"a_general_trend", core.Figure6a},
		{"b_one_day", core.Figure6b},
		{"c_per_minute", core.Figure6c},
	}
	for _, tt := range variants {
		b.Run(tt.name, func(b *testing.B) {
			b.ReportAllocs()
			var samples int
			for i := 0; i < b.N; i++ {
				r, err := s.Figure6(tt.v)
				if err != nil {
					b.Fatal(err)
				}
				samples = len(r.Trace.Samples)
			}
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

func BenchmarkFigure7(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		peak = r.PeakCounterfeitPct
	}
	b.ReportMetric(peak, "peak-counterfeit-pct")
}

func BenchmarkFigure8(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	var top int
	for i := 0; i < b.N; i++ {
		r, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		top = r.TopASes[0].Nodes
	}
	b.ReportMetric(float64(top), "top-as-synced-nodes")
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

// BenchmarkAblationSpreading compares diffusion and trickle propagation:
// virtual time for one block to reach the whole network.
func BenchmarkAblationSpreading(b *testing.B) {
	for _, mode := range []struct {
		name string
		s    p2p.Spreading
	}{{"diffusion", p2p.Diffusion}, {"trickle", p2p.Trickle}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var reach time.Duration
			for i := 0; i < b.N; i++ {
				sim, err := netsim.FromConfig(netsim.Config{
					Nodes: 150, Seed: 7,
					Gossip: p2p.Config{FailureRate: 1e-9, Spreading: mode.s},
				})
				if err != nil {
					b.Fatal(err)
				}
				g := blockchain.Genesis()
				blk := blockchain.NewBlock(g, 0, 0, nil, false)
				if err := sim.Network.Publish(0, blk); err != nil {
					b.Fatal(err)
				}
				step := time.Second
				for now := step; now < time.Hour; now += step {
					sim.Run(now)
					all := true
					for _, n := range sim.Network.Nodes {
						if n.Height() != 1 {
							all = false
							break
						}
					}
					if all {
						reach = now
						break
					}
				}
			}
			b.ReportMetric(reach.Seconds(), "reach-sec")
		})
	}
}

// BenchmarkAblationSpanRatio sweeps Rspan over 40 block intervals. An
// under-synchronized grid shows up as natural fork churn (propagation delay
// converts blocks into competing branches, per Decker & Wattenhofer) and a
// smaller exactly-synced fraction; Rspan 2.0 keeps the network updated
// between blocks with no forks, as the paper reports.
func BenchmarkAblationSpanRatio(b *testing.B) {
	for _, span := range []float64{0.2, 0.5, 1.0, 2.0} {
		b.Run(formatFloat(span), func(b *testing.B) {
			b.ReportAllocs()
			var synced, forks float64
			for i := 0; i < b.N; i++ {
				g, err := gridsim.New(3,
					gridsim.WithSize(25), gridsim.WithSpanRatio(span),
					gridsim.WithFailureRate(0.10))
				if err != nil {
					b.Fatal(err)
				}
				// Sample half an interval past the last block so the metric
				// reflects steady-state sync, not the instant of mining.
				g.Advance(g.StepsPerBlock()*40 + g.StepsPerBlock()/2)
				s := g.Snapshot()
				synced = float64(s.Lag[0]) / 625
				forks = float64(g.ForksEmerged())
			}
			b.ReportMetric(synced*100, "synced-pct")
			b.ReportMetric(forks, "forks")
		})
	}
}

// BenchmarkAblationPeerCount sweeps outbound peer counts (§V-D notes
// clients can raise connections): sync resilience under heavy (30%) loss,
// plus the message overhead the extra redundancy costs.
func BenchmarkAblationPeerCount(b *testing.B) {
	for _, peers := range []int{2, 4, 8, 16} {
		b.Run(formatInt(peers), func(b *testing.B) {
			b.ReportAllocs()
			var synced, msgs float64
			for i := 0; i < b.N; i++ {
				sim, err := netsim.FromConfig(netsim.Config{
					Nodes: 150, Seed: 11,
					Gossip: p2p.Config{PeerCount: peers, FailureRate: 0.30},
				})
				if err != nil {
					b.Fatal(err)
				}
				sim.StartMining()
				sim.Run(8 * time.Hour)
				lag := sim.LagHistogram()
				synced = float64(lag.Synced) / float64(lag.Total())
				msgs = float64(sim.Network.MsgStats().Sent) / float64(sim.BlocksProduced())
			}
			b.ReportMetric(synced*100, "synced-pct")
			b.ReportMetric(msgs, "msgs/block")
		})
	}
}

// BenchmarkAblationFailureRate sweeps message loss on an under-synchronized
// grid (Rspan 0.5, where information cannot cross the network between
// blocks): natural fork emergence over 60 block intervals.
func BenchmarkAblationFailureRate(b *testing.B) {
	for _, failure := range []float64{1e-9, 0.10, 0.20, 0.30} {
		b.Run(formatFloat(failure), func(b *testing.B) {
			b.ReportAllocs()
			var forks float64
			for i := 0; i < b.N; i++ {
				g, err := gridsim.New(5,
					gridsim.WithSize(25), gridsim.WithSpanRatio(0.5),
					gridsim.WithFailureRate(failure))
				if err != nil {
					b.Fatal(err)
				}
				g.Advance(g.StepsPerBlock() * 60)
				forks = float64(g.ForksEmerged())
			}
			b.ReportMetric(forks, "forks")
		})
	}
}

// BenchmarkAblationBlockAware runs the identical temporal attack with the
// countermeasure off and on.
func BenchmarkAblationBlockAware(b *testing.B) {
	for _, protect := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(protect.name, func(b *testing.B) {
			b.ReportAllocs()
			var captured float64
			for i := 0; i < b.N; i++ {
				sim, err := netsim.FromConfig(netsim.Config{
					Nodes: 120, Seed: 17,
					Gossip: p2p.Config{FailureRate: 0.10},
				})
				if err != nil {
					b.Fatal(err)
				}
				sim.StartMining()
				sim.Run(6 * time.Hour)
				victims := attack.FindVictims(sim, 0, 15)
				if protect.on {
					ba, err := defense.NewBlockAware(sim, victims, defense.BlockAwareConfig{Seed: 5})
					if err != nil {
						b.Fatal(err)
					}
					ba.Start()
				}
				res, err := attack.ExecuteTemporalOn(sim, attack.TemporalConfig{
					AttackerShare: 0.30, HoldFor: 8 * time.Hour, HealFor: 2 * time.Hour,
				}, victims)
				if err != nil {
					b.Fatal(err)
				}
				captured = float64(res.CapturedAtRelease)
			}
			b.ReportMetric(captured, "victims-captured")
		})
	}
}

// --- Parallel runner (internal/parallel) ----------------------------------
//
// Each pair below measures the same workload sequentially (workers = 1) and
// fanned across every CPU (workers = 0 → GOMAXPROCS). Output is
// bit-identical either way (see TestRunTrialsDeterministic and the core
// determinism tests); on a ≥4-core machine the parallel variants target
// ≥3× the sequential throughput.

func gridTrialsConfig() gridsim.Config {
	return gridsim.Config{
		Size: 25, SpanRatio: 2.0, FailureRate: 0.10,
		AttackerShare: 0.30, AttackerRow: 7, AttackerCol: 7,
		BoundaryRadius: 5, Seed: 1,
	}
}

func benchGridTrials(b *testing.B, workers int) {
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := gridsim.RunTrials(gridTrialsConfig(), gridsim.TrialsConfig{
			Trials: 16, Blocks: 20, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.ForkRate
	}
	b.ReportMetric(rate, "forks/block")
}

// BenchmarkGridTrials is the sequential Monte-Carlo ensemble of Figure 7's
// grid (16 replicates × 20 block intervals).
func BenchmarkGridTrials(b *testing.B) { benchGridTrials(b, 1) }

// BenchmarkGridTrialsParallel fans the same ensemble across all CPUs.
func BenchmarkGridTrialsParallel(b *testing.B) { benchGridTrials(b, 0) }

// BenchmarkFigure4Parallel is BenchmarkFigure4 with the per-AS hijack
// enumeration fanned across CPUs.
func BenchmarkFigure4Parallel(b *testing.B) {
	s := parStudy(b)
	b.ReportAllocs()
	var hetzner int
	for i := 0; i < b.N; i++ {
		r, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		hetzner = r.For95[24940]
	}
	b.ReportMetric(float64(hetzner), "as24940-hijacks-95pct")
}

// BenchmarkTableVParallel is BenchmarkTableV with the lag-window scan
// fanned across CPUs.
func BenchmarkTableVParallel(b *testing.B) {
	s := parStudy(b)
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := s.TableV()
		if err != nil {
			b.Fatal(err)
		}
		frac = r.Rows[0].Frac[0]
	}
	b.ReportMetric(frac*100, "t5min-behind1-pct")
}

func benchStudyAll(b *testing.B, s *core.Study, workers int) {
	b.ReportAllocs()
	var outputs int
	for i := 0; i < b.N; i++ {
		out, err := s.RunAll(workers)
		if err != nil {
			b.Fatal(err)
		}
		outputs = len(out)
	}
	b.ReportMetric(float64(outputs), "experiments")
}

// BenchmarkStudyAll regenerates the entire evaluation sequentially.
func BenchmarkStudyAll(b *testing.B) { benchStudyAll(b, study(b), 1) }

// BenchmarkStudyAllParallel fans the whole evaluation across CPUs.
func BenchmarkStudyAllParallel(b *testing.B) { benchStudyAll(b, parStudy(b), 0) }

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 3, 64)
}

func formatInt(n int) string {
	return strconv.Itoa(n)
}

// BenchmarkAblationLogicalCapture sweeps the captured-client share of the
// relay-silence logical attack: eight-peer gossip shrugs off even a 63%
// capture, then collapses past the percolation threshold — why §V-D frames
// logical control as an optimizer for the other attacks rather than a
// standalone partition.
func BenchmarkAblationLogicalCapture(b *testing.B) {
	for _, k := range []int{1, 2, 20, 100} {
		b.Run(formatInt(k), func(b *testing.B) {
			b.ReportAllocs()
			s := study(b)
			versions := []string{}
			for _, row := range measure.TopVersions(s.Pop, k) {
				versions = append(versions, row.Version)
			}
			var behind, share float64
			for i := 0; i < b.N; i++ {
				sim, err := s.NewSimFromPopulation(150, 8)
				if err != nil {
					b.Fatal(err)
				}
				sim.StartMining()
				sim.Run(3 * time.Hour)
				res, err := attack.ExecuteLogicalCapture(sim, versions, 12*time.Hour, 0)
				if err != nil {
					b.Fatal(err)
				}
				behind, share = res.HonestBehindFrac, res.Share
			}
			b.ReportMetric(share*100, "captured-pct")
			b.ReportMetric(behind*100, "honest-behind-pct")
		})
	}
}
