package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/service"
)

// sweepSetupRuns and scaleSetupRuns are how many times set-up is repeated;
// setup_s is their median.
const (
	sweepSetupRuns = 5
	scaleSetupRuns = 9
)

// runSweep is the researcher's workload: `experiment all` at spec defaults,
// one new study seed per op, in process through service.RunSpec with one
// worker per CPU. Every op pays population generation. Set-up is a few
// warm-up ops on seeds outside the op list.
func runSweep(cfg *config, tr *tracer) (*measured, error) {
	seeds := sweepSeeds(cfg.seed, cfg.seconds)
	m := &measured{}
	for _, s := range sweepWarmupSeeds(cfg.seed, seeds) {
		t0 := time.Now()
		out, err := sweepOp(s, nil, -1)
		m.setups = append(m.setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("sweep set-up op (seed %d): %w", s, err)
		}
		if !checkSweepOutput(cfg.golden, s, out) {
			m.mismatch(fmt.Sprintf("sweep set-up op, seed %d", s))
		}
	}
	heapSetup := heapMB()
	logf("sweep: %d ops of `experiment all`, one new seed each", len(seeds))
	start := time.Now()
	for i, s := range seeds {
		runtime.GC() // as in runScale
		t0 := time.Now()
		out, err := sweepOp(s, tr, i)
		m.latMs = append(m.latMs, ms(time.Since(t0)))
		m.attempted++
		switch {
		case err != nil:
			m.fail(fmt.Errorf("seed %d: %w", s, err), false)
		case !checkSweepOutput(cfg.golden, s, out):
			m.mismatch(fmt.Sprintf("sweep op, seed %d", s))
		}
	}
	m.wall = time.Since(start)
	m.peakRSSMB = peakRSSMB("self")
	heapEnd := heapMB()
	m.report = map[string]any{
		"inputs": map[string]any{
			"ops":                   len(seeds),
			"new_seed_share":        1.0,
			"golden_checked":        seeds[0] == 1,
			"populations_in_memory": len(seeds) + sweepSetupRuns,
		},
		"heap_mb_after_setup":   heapSetup,
		"heap_mb_after_ops":     heapEnd,
		"heap_mb_per_new_seed":  (heapEnd - heapSetup) / float64(len(seeds)),
		"workers_per_op":        runtime.NumCPU(),
		"latency_p50_ms_note":   "median op latency; quoted only with >= 20 ops",
		"population_memo_note":  "core memoizes every seed's population for the process lifetime, so peak_rss_mb grows with the number of distinct seeds; the benchmark does not restart the process to hide it",
		"golden_check_seed_one": "with --seed 1 the first op is byte-compared with " + goldenPath,
	}
	return m, nil
}

// sweepOp runs `experiment all` for study seed s. Untraced, it is one
// service.RunSpec call; traced, the same work is split into construction
// and the sweep so each gets a span.
func sweepOp(s int64, tr *tracer, op int) (string, error) {
	spec := newSpec("experiment", "all", s)
	spec.Workers = runtime.NumCPU()
	if tr == nil {
		res, err := service.RunSpec(spec, service.RunOptions{})
		if err != nil {
			return "", err
		}
		return res.Output, nil
	}
	root := tr.begin(op, "sweep.op", -1)
	defer tr.end(root)
	var study *core.Study
	var err error
	tr.timed(op, "core.construct", root, func(int) {
		study, err = core.NewFromSpec(spec, core.WithObserver(obs.New(0)))
	})
	if err != nil {
		return "", err
	}
	var outs []core.ExperimentOutput
	tr.timed(op, "core.run_all", root, func(int) {
		outs, err = study.RunAll(study.Opts.Workers)
	})
	if err != nil {
		return "", err
	}
	texts := make([]string, len(outs))
	for i, o := range outs {
		texts[i] = o.Text
	}
	return joinOutputs(texts), nil
}

// runScale runs five paper-leaning ops on one study seed, with the
// population built in set-up. The kernels do nearly all the work: lag-trace
// synthesis, the event engine with gossip, and the grid simulator. The op
// list is fixed by the paper's scales, so --seconds does not change it.
func runScale(cfg *config, tr *tracer) (*measured, error) {
	ops := scaleOps(cfg.seed)
	m := &measured{}
	for k := 0; k < scaleSetupRuns; k++ {
		t0 := time.Now()
		_, err := dataset.Generate(cfg.seed)
		m.setups = append(m.setups, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("scale set-up: %w", err)
		}
	}
	// Fill the study's population memo, so the ops find it built.
	if _, err := core.New(cfg.seed); err != nil {
		return nil, fmt.Errorf("scale set-up: %w", err)
	}
	logf("scale: %d paper-scale ops on seed %d", len(ops), cfg.seed)
	opMs, opPeak := map[string]float64{}, map[string]float64{}
	start := time.Now()
	for i, op := range ops {
		// Collect the previous op's garbage first, so peak_rss_mb does not
		// depend on when the collector happened to run.
		runtime.GC()
		t0 := time.Now()
		out, err := scaleRun(op, tr, i)
		opMs[op.metric] = ms(time.Since(t0))
		opPeak[op.metric] = peakRSSMB("self")
		m.latMs = append(m.latMs, opMs[op.metric])
		m.attempted++
		switch {
		case err != nil:
			known := op.knownDefect != "" && strings.Contains(err.Error(), op.knownDefect)
			m.fail(fmt.Errorf("%s: %w", op.metric, err), known)
		case !strings.HasPrefix(out, op.title+"\n") || strings.Count(out, "\n") < 3:
			m.mismatch(op.metric)
		}
	}
	m.wall = time.Since(start)
	m.peakRSSMB = peakRSSMB("self")
	m.report = map[string]any{
		"op_ms":                opMs,
		"peak_rss_mb_after_op": opPeak,
		"workers_per_op":       runtime.NumCPU(),
		"known_defect": "figure7 at grid_size 100 fails on most seeds with \"" + knownFigure7Defect +
			"\"; repro: go run ./cmd/partition experiment figure7 -full -seed 1 (-full sets grid_size 100; experiment all -full exits 1 for the same reason)",
	}
	return m, nil
}

// scaleRun runs one scale op. Untraced it is service.RunSpec; traced, the
// construction and the Study method get their own spans.
func scaleRun(op scaleOp, tr *tracer, i int) (string, error) {
	spec := op.spec
	spec.Workers = runtime.NumCPU()
	if tr == nil {
		res, err := service.RunSpec(spec, service.RunOptions{})
		if err != nil {
			return "", err
		}
		return res.Output, nil
	}
	exp, ok := experimentByName(spec.Run.Name)
	if !ok {
		return "", errors.New("unknown experiment " + spec.Run.Name)
	}
	root := tr.begin(i, "scale.op", -1)
	defer tr.end(root)
	var study *core.Study
	var err error
	tr.timed(i, "core.construct", root, func(int) {
		study, err = core.NewFromSpec(spec, core.WithObserver(obs.New(0)))
	})
	if err != nil {
		return "", err
	}
	var out string
	tr.timed(i, "core."+op.metric, root, func(int) { out, err = exp.run(study) })
	return out, err
}

// heapMB is the live heap after a collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}
