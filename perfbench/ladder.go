package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gridsim"
	"repro/internal/obs"
	"repro/internal/service"
)

// The layer ladder: one timed call (or a few) into each layer's public
// functions, the same in every traced run. README.md names the end-to-end
// metric and workload each entry should move.

// ladderOp numbers the ladder's spans apart from the workload's op ids.
const ladderOp = 1 << 30

// Ladder sizes.
const (
	ladderReps        = 3   // repeated timings; the metric is their median
	ladderCorePasses  = 12  // timed passes over `experiment all` in the core step (even)
	ladderGridSteps   = 200 // Advance steps on the 100x100 world
	ladderHealTrials  = 8   // RunTrials ensemble at the heal config
	ladderSyncAppends = 100
	ladderBufAppends  = 1000
	ladderSubmits     = 100
	ladderFingerprint = 2000 // ParseSpec+Fingerprint calls per timed batch
)

type ladderResult struct {
	metrics map[string]metric
	report  map[string]any
	// problems are wrong outputs; they make the run incorrect. warnings
	// are measurements outside their expected range.
	problems  []string
	warnings  []string
	attempted int
}

type ladder struct {
	cfg   *config
	tr    *tracer
	seeds []int64
	out   *ladderResult
}

func (l *ladder) set(name string, v float64, unit string) {
	l.out.metrics[name] = metric{v, unit}
}

func (l *ladder) problem(format string, args ...any) {
	l.out.problems = append(l.out.problems, fmt.Sprintf(format, args...))
}

// step runs one ladder step inside a span.
func (l *ladder) step(name string, f func(self int) error) error {
	var err error
	l.tr.timed(ladderOp, "ladder."+name, -1, func(self int) { err = f(self) })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// timeIt runs f inside a span and returns its duration.
func (l *ladder) timeIt(name string, parent int, f func() error) (time.Duration, error) {
	var err error
	t0 := time.Now()
	l.tr.timed(ladderOp, name, parent, func(int) { err = f() })
	return time.Since(t0), err
}

func runLadder(cfg *config, tr *tracer) (*ladderResult, error) {
	l := &ladder{
		cfg:   cfg,
		tr:    tr,
		seeds: distinctSeeds(cfg.seed, streamLadder, 1+2*ladderReps, nil),
		out:   &ladderResult{metrics: map[string]metric{}, report: map[string]any{}},
	}
	steps := []struct {
		name string
		f    func(self int) error
	}{
		{"dataset", l.dataset},
		{"core", l.core},
		{"scale_ops", l.scaleOps},
		{"sim_p2p", l.simP2P},
		{"gridsim", l.gridsim},
		{"checkpoint", l.checkpoint},
		{"service", l.service},
	}
	for _, s := range steps {
		logf("ladder: %s", s.name)
		if err := l.step(s.name, s.f); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// dataset times population generation, the fresh-op share it takes, and
// lag-trace synthesis at Table V's 60-day configuration.
func (l *ladder) dataset(self int) error {
	var gen, fresh []float64
	for k := 0; k < ladderReps; k++ {
		d, err := l.timeIt("dataset.Generate", self, func() error {
			_, err := dataset.Generate(l.seeds[1+k])
			return err
		})
		if err != nil {
			return err
		}
		gen = append(gen, ms(d))
		// A fresh op on a new seed, as partitiond runs one: construction
		// (population generation) plus the spatial attack plan.
		spec := newSpec("attack", "spatial", l.seeds[1+ladderReps+k])
		d, err = l.timeIt("service.RunSpec", self, func() error {
			_, err := service.RunSpec(spec, service.RunOptions{})
			return err
		})
		if err != nil {
			return err
		}
		fresh = append(fresh, ms(d))
		l.out.attempted += 2
	}
	l.set("dataset.generate_ms", median(gen), "ms")
	l.set("core.fresh_op_ms", median(fresh), "ms")
	l.set("core.construct_share", median(gen)/median(fresh), "ratio")
	l.out.report["generate_ms"] = gen
	l.out.report["fresh_attack_spatial_ms"] = fresh

	study, err := core.New(l.seeds[0])
	if err != nil {
		return err
	}
	var tr *dataset.Trace
	d, err := l.timeIt("dataset.RunTrace", self, func() error {
		var err error
		tr, err = study.Pop.RunTrace(dataset.TraceConfig{
			Duration:    60 * 24 * time.Hour,
			SampleEvery: 10 * time.Minute,
			Seed:        l.seeds[0]*1000003 + 5, // Table V's trace seed salt
		})
		return err
	})
	if err != nil {
		return err
	}
	l.out.attempted++
	l.set("dataset.trace_ms", ms(d), "ms")
	l.set("dataset.trace_samples_per_s", float64(len(tr.Samples))/d.Seconds(), "1/s")
	l.out.report["trace_samples"] = len(tr.Samples)
	return nil
}

// core times every experiment of `experiment all` one Study method at a
// time, RunAll(1) and RunAll(nproc), over ladderCorePasses passes after an
// untimed warm-up sweep. The passes come in pairs: one runs the parts
// first, the other RunAll(1) first, so an order effect cancels; each pair
// ends with one RunAll(nproc). Each timed block starts from a collected
// heap, so collection work lands in the block that made the garbage.
func (l *ladder) core(self int) error {
	study, err := core.New(l.seeds[0], core.WithWorkers(1))
	if err != nil {
		return err
	}
	if _, err := study.RunAll(1); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	parts := map[string][]float64{}
	var all1, allN, sums, partsOverTotal, efficiency []float64
	for k := 0; k < ladderCorePasses; k++ {
		var (
			sum, t1 float64
			out1    string
			texts   = make([]string, len(allExperiments))
		)
		runParts := func() error {
			runtime.GC()
			for i, e := range allExperiments {
				d, err := l.timeIt("core."+e.name, self, func() error {
					var err error
					texts[i], err = e.run(study)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
				parts[e.name] = append(parts[e.name], ms(d))
				sum += ms(d)
			}
			return nil
		}
		runAll1 := func() (err error) {
			out1, t1, err = l.runAll(study, 1, self)
			return err
		}
		blocks := []func() error{runParts, runAll1}
		if k%2 == 1 {
			slices.Reverse(blocks)
		}
		for _, b := range blocks {
			if err := b(); err != nil {
				return err
			}
		}
		want := joinOutputs(texts)
		if out1 != want {
			l.problem("RunAll(1) output differs from the experiments run one at a time")
		}
		all1, sums = append(all1, t1), append(sums, sum)
		l.out.attempted += len(allExperiments) + 1
		if k%2 == 0 {
			continue
		}
		outN, tN, err := l.runAll(study, nproc, self)
		if err != nil {
			return err
		}
		if outN != want {
			l.problem("RunAll(%d) output differs from the experiments run one at a time", nproc)
		}
		allN = append(allN, tN)
		l.out.attempted++
		pair := sums[k-1] + sum
		partsOverTotal = append(partsOverTotal, pair/(all1[k-1]+t1))
		efficiency = append(efficiency, pair/2/(tN*float64(nproc)))
	}
	for _, e := range allExperiments {
		l.set("core."+e.name+"_ms", median(parts[e.name]), "ms")
	}
	// The ratios are medians of per-pair ratios: a pair's sum of parts
	// keeps the collection pauses and host stalls its whole-sweep timings
	// keep, and the median drops a pair a burst of outside load fell on.
	l.set("core.run_all_1_ms", median(all1), "ms")
	l.set("core.run_all_nproc_ms", median(allN), "ms")
	l.set("core.parts_over_total", median(partsOverTotal), "ratio")
	l.set("parallel.efficiency", median(efficiency), "ratio")
	if r := median(partsOverTotal); r < 0.95 || r > 1.05 {
		l.out.warnings = append(l.out.warnings, fmt.Sprintf("core.parts_over_total %.3f outside 0.95-1.05", r))
	}
	l.out.report["parts_sum_ms"] = sums
	l.out.report["run_all_1_ms"] = all1
	l.out.report["run_all_nproc_ms"] = allN
	return nil
}

// runAll times study.RunAll(w), starting from a collected heap, and
// returns its output as `experiment all` prints it and its time in ms.
func (l *ladder) runAll(study *core.Study, w, self int) (string, float64, error) {
	runtime.GC()
	var outs []core.ExperimentOutput
	d, err := l.timeIt(fmt.Sprintf("core.RunAll(%d)", w), self, func() error {
		var err error
		outs, err = study.RunAll(w)
		return err
	})
	if err != nil {
		return "", 0, err
	}
	texts := make([]string, len(outs))
	for i, o := range outs {
		texts[i] = o.Text
	}
	return joinOutputs(texts), ms(d), nil
}

// scaleOps times the scale workload's ops. A traced scale run already
// timed them in its traced pass; the ladder reuses those spans.
func (l *ladder) scaleOps(self int) error {
	for i, op := range scaleOps(l.cfg.seed) {
		name := "core." + op.metric
		if ds := l.tr.durations(name); len(ds) > 0 {
			l.set(name+"_ms", ms(ds[0]), "ms")
			continue
		}
		exp, _ := experimentByName(op.spec.Run.Name)
		spec := op.spec
		spec.Workers = runtime.NumCPU()
		study, err := core.NewFromSpec(spec)
		if err != nil {
			return err
		}
		var out string
		d, err := l.timeIt(name, self, func() error {
			var err error
			out, err = exp.run(study)
			return err
		})
		l.out.attempted++
		switch {
		case err != nil && op.knownDefect != "" && strings.Contains(err.Error(), op.knownDefect):
			l.out.report["known_defect_"+op.metric] = err.Error()
		case err != nil:
			return fmt.Errorf("%s: %w", op.metric, err)
		case !strings.HasPrefix(out, op.title+"\n"):
			l.problem("scale op %d (%s) output does not start with its title", i, op.metric)
		}
		l.set(name+"_ms", ms(d), "ms")
	}
	return nil
}

// simP2P replays Figure 5's live network at 3000 nodes with a metrics
// observer: event-engine and gossip throughput, and the share of inv
// announcements the receiver already had.
func (l *ladder) simP2P(self int) error {
	const nodes = 3000
	o := obs.NewMetricsOnly()
	seed := l.seeds[0]
	study, err := core.New(seed, core.WithNetworkNodes(nodes), core.WithObserver(o))
	if err != nil {
		return err
	}
	sim, err := study.NewSimFromPopulation(nodes, seed)
	if err != nil {
		return err
	}
	d, err := l.timeIt("netsim.Run+attack.ExecuteTemporal", self, func() error {
		sim.StartMining()
		sim.Run(6 * time.Hour)
		_, err := attack.ExecuteTemporal(sim, attack.TemporalConfig{
			AttackerShare: 0.30,
			MaxVictims:    nodes / 8,
			HoldFor:       8 * time.Hour,
			HealFor:       4 * time.Hour,
		})
		return err
	})
	if err != nil {
		return err
	}
	l.out.attempted++
	events := float64(sim.Engine.Processed())
	var sent, invSent, invDeduped float64
	for _, c := range o.Registry().Snapshot().Counters {
		switch {
		case c.Name == "p2p.msgs_sent{type=inv}":
			invSent = float64(c.Value)
			sent += float64(c.Value)
		case strings.HasPrefix(c.Name, "p2p.msgs_sent{"):
			sent += float64(c.Value)
		case c.Name == "p2p.msgs_deduped{type=inv}":
			invDeduped = float64(c.Value)
		}
	}
	if events == 0 || sent == 0 || invSent == 0 {
		l.problem("figure5 network recorded no events or messages")
		return nil
	}
	l.set("sim.events", events, "count")
	l.set("sim.events_per_s", events/d.Seconds(), "1/s")
	l.set("p2p.msgs_sent", sent, "count")
	l.set("p2p.msgs_per_s", sent/d.Seconds(), "1/s")
	l.set("p2p.inv_dedup_share", invDeduped/invSent, "ratio")
	l.out.report["figure5_network_ms"] = ms(d)
	return nil
}

// gridsim times Advance on a 100x100 world with the legacy and the sharded
// engine, and a RunTrials ensemble at the heal study's configuration.
func (l *ladder) gridsim(self int) error {
	engines := []struct {
		name string
		opts []gridsim.Option
	}{
		{"legacy", []gridsim.Option{gridsim.WithSize(100)}},
		{"sharded", []gridsim.Option{gridsim.WithSize(100), gridsim.WithShards(2), gridsim.WithShardWorkers(2)}},
	}
	for _, e := range engines {
		var rates []float64
		for k := 0; k < ladderReps; k++ {
			g, err := gridsim.New(l.seeds[0]+int64(k), e.opts...)
			if err != nil {
				return err
			}
			d, _ := l.timeIt("gridsim.Advance."+e.name, self, func() error {
				g.Advance(ladderGridSteps)
				return nil
			})
			rates = append(rates, float64(g.NumCells()*ladderGridSteps)/d.Seconds())
			l.out.attempted++
		}
		l.set("gridsim.cell_steps_per_s."+e.name, median(rates), "1/s")
	}

	const size, span = 50, 2.0
	stepsPerBlock := int(span * size)
	cfg := gridsim.NewConfig(l.seeds[0],
		gridsim.WithSize(size),
		gridsim.WithSpanRatio(span),
		gridsim.WithFailureRate(0.10),
		gridsim.WithAttacker(0.30, 7, 7),
		gridsim.WithBoundary(5, 0, stepsPerBlock*40/2),
	)
	d, err := l.timeIt("gridsim.RunTrials", self, func() error {
		_, err := gridsim.RunTrials(cfg, gridsim.TrialsConfig{
			Trials: ladderHealTrials, Blocks: 40, Workers: runtime.NumCPU(),
			SettleSteps: stepsPerBlock / 2,
		})
		return err
	})
	if err != nil {
		return err
	}
	l.out.attempted++
	l.set("gridsim.trials_per_s", ladderHealTrials/d.Seconds(), "1/s")
	return nil
}

// checkpoint times Journal.Append with and without fsync per record.
func (l *ladder) checkpoint(self int) error {
	payload := bytes.Repeat([]byte("x"), 2048)
	for _, mode := range []struct {
		name string
		sync bool
		n    int
	}{{"sync", true, ladderSyncAppends}, {"buffered", false, ladderBufAppends}} {
		path := filepath.Join(l.cfg.work, "ladder-"+mode.name+".ckpt")
		j, err := checkpoint.CreateJournal(path, "perfbench", checkpoint.JournalOptions{Sync: mode.sync})
		if err != nil {
			return err
		}
		var per []float64
		for i := 0; i < mode.n; i++ {
			d, err := l.timeIt("checkpoint.Append."+mode.name, self, func() error {
				return j.Append(checkpoint.Record{Kind: checkpoint.KindResult, Task: i, Seed: int64(i), Name: "ladder", Output: payload})
			})
			if err != nil {
				j.Close()
				return err
			}
			per = append(per, us(d))
		}
		if err := j.Close(); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		l.out.attempted += mode.n
		l.set("checkpoint.append_us."+mode.name, median(per), "us")
	}
	return nil
}

// service times Service.Submit for each admission outcome, the HTTP round
// trip on top of it, and spec parsing plus fingerprinting.
func (l *ladder) service(self int) error {
	docs := make([][]byte, ladderSubmits)
	for i := range docs {
		spec := newSpec("experiment", "table2", l.seeds[0])
		spec.NetworkNodes = 1000 + i
		doc, err := spec.CanonicalJSON()
		if err != nil {
			return err
		}
		docs[i] = doc
	}
	dir := filepath.Join(l.cfg.work, "ladder-service")
	submitAll := func(svc *service.Service, name string, want service.SubmitStatus) ([]float64, error) {
		var per []float64
		for _, doc := range docs {
			var status service.SubmitStatus
			d, err := l.timeIt("service.Submit."+name, self, func() error {
				var err error
				_, status, err = svc.Submit(doc)
				return err
			})
			if err != nil {
				return nil, err
			}
			if status != want {
				return nil, fmt.Errorf("submit answered %q, want %q", status, want)
			}
			per = append(per, us(d))
		}
		l.out.attempted += len(docs)
		return per, nil
	}
	first, _, err := service.New(service.Config{StateDir: dir, Workers: runtime.NumCPU(), Queue: 2 * ladderSubmits})
	if err != nil {
		return err
	}
	accepted, err := submitAll(first, "accepted", service.SubmitAccepted)
	if err != nil {
		first.Drain()
		return err
	}
	first.Drain()

	svc, _, err := service.New(service.Config{StateDir: dir, Workers: runtime.NumCPU(), Queue: 2 * ladderSubmits})
	if err != nil {
		return err
	}
	defer svc.Drain()
	cached, err := submitAll(svc, "cached", service.SubmitCached)
	if err != nil {
		return err
	}
	exists, err := submitAll(svc, "exists", service.SubmitExists)
	if err != nil {
		return err
	}
	l.set("service.submit_us.accepted", median(accepted), "us")
	l.set("service.submit_us.cached", median(cached), "us")
	l.set("service.submit_us.exists", median(exists), "us")

	ts := httptest.NewServer(service.Handler(svc))
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	var rtt []float64
	for _, doc := range docs {
		d, err := l.timeIt("http.POST /v1/jobs", self, func() error {
			resp, err := hc.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /v1/jobs: %s", resp.Status)
			}
			return nil
		})
		if err != nil {
			return err
		}
		rtt = append(rtt, us(d))
	}
	l.out.attempted += len(docs)
	l.set("service.http_us", median(rtt)-median(exists), "us")
	l.out.report["http_round_trip_us"] = median(rtt)

	var batches []float64
	for k := 0; k < 5; k++ {
		d, err := l.timeIt("core.ParseSpec+Fingerprint", self, func() error {
			for i := 0; i < ladderFingerprint; i++ {
				spec, err := core.ParseSpec(docs[i%len(docs)])
				if err != nil {
					return err
				}
				if _, err := spec.Fingerprint(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		batches = append(batches, us(d)/ladderFingerprint)
	}
	l.set("core.spec_fingerprint_us", median(batches), "us")
	return nil
}
