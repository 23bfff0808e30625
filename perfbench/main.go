// Command perfbench is the reproduction's benchmark: three workloads that
// stress different layers, end-to-end metrics from untraced runs, and a
// traced run that adds a per-layer ladder. It times calls into each layer's
// public functions from its own files and changes no program code. See
// README.md in this directory for the workloads, the metrics and what each
// one should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result object; the line before it
// is the report (host block, sample counts, input properties, notes).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// goldenPath is the committed `experiment all` output for seed 1.
const goldenPath = "internal/integration/testdata/experiment_all_seed1.golden"

type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	root       string
	partitiond string
	work       string // per-run scratch directory inside the checkout
	golden     []byte
	// daemonWant is the in-process output of every daemon spec, by catalog
	// index: computed once, shared by the passes of a traced run.
	daemonWant map[int][]byte
}

// measured is what one pass of a workload produced.
type measured struct {
	attempted int
	failed    int
	// wrong counts ops whose output did not match its check; unexpected
	// holds errors other than the known defect. Either makes the run
	// incorrect.
	wrong      int
	unexpected []string
	known      []string
	wall       time.Duration
	setups     []time.Duration
	latMs      []float64
	peakRSSMB  float64
	report     map[string]any
}

func (m *measured) fail(err error, known bool) {
	m.failed++
	if known {
		m.known = append(m.known, err.Error())
		return
	}
	m.unexpected = append(m.unexpected, err.Error())
}

func (m *measured) mismatch(what string) {
	m.failed++
	m.wrong++
	m.unexpected = append(m.unexpected, "output mismatch: "+what)
}

func (m *measured) correct() bool { return m.wrong == 0 && len(m.unexpected) == 0 }

type workloadFunc func(cfg *config, tr *tracer) (*measured, error)

var workloads = map[string]workloadFunc{
	"sweep":  runSweep,
	"scale":  runScale,
	"daemon": runDaemon,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "sweep, scale or daemon")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the op lists are derived from it")
	fs.IntVar(&cfg.seconds, "seconds", 15, "run length: sets the size of the fixed op lists of sweep and daemon")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.partitiond, "partitiond", "", "partitiond binary built from the same checkout (daemon workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sweep|scale|daemon, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg.trace = *trace == 1
	if err := prepare(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(cfg.work)

	var (
		res    result
		report map[string]any
		err    error
	)
	if cfg.trace {
		res, report, err = tracedRun(cfg, w)
	} else {
		res, report, err = untracedRun(cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	report["schema"] = "perfbench.report.v1"
	report["host"] = host(cfg.root, cfg.seed)
	report["workload"] = cfg.workload
	report["trace"] = cfg.trace
	if err := printLine(report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := printLine(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// prepare resolves paths, reads the golden and creates the scratch dir.
func prepare(cfg *config) error {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	cfg.golden, err = os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	if cfg.workload == "daemon" {
		if cfg.partitiond == "" {
			return errors.New("the daemon workload needs -partitiond")
		}
		if _, err := os.Stat(cfg.partitiond); err != nil {
			return fmt.Errorf("partitiond binary: %w", err)
		}
	}
	cfg.work = filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(cfg.work); err != nil {
		return err
	}
	return os.MkdirAll(cfg.work, 0o755)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(cfg *config, w workloadFunc) (result, map[string]any, error) {
	m, err := w(cfg, nil)
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   m.correct(),
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":   {medianDuration(m.setups).Seconds(), "s"},
			"wall_s":    {m.wall.Seconds(), "s"},
			"ops_per_s": {float64(m.attempted) / m.wall.Seconds(), "1/s"},
		},
	}
	return res, passReport(m), nil
}

// passReport is the report block of one measured pass.
func passReport(m *measured) map[string]any {
	r := map[string]any{
		"attempted":    m.attempted,
		"failed":       m.failed,
		"failed_share": float64(m.failed) / float64(max(m.attempted, 1)),
		"wrong":        m.wrong,
		"wall_s":       m.wall.Seconds(),
		"setup_runs_s": durationsS(m.setups),
		"latency":      summarize(m.latMs),
		"peak_rss_mb":  m.peakRSSMB,
	}
	if len(m.known) > 0 {
		r["known_defect_failures"] = m.known
	}
	if len(m.unexpected) > 0 {
		r["unexpected_failures"] = m.unexpected
	}
	for k, v := range m.report {
		r[k] = v
	}
	return r
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tracedRun is the per-layer run: an untraced reference pass, the traced
// pass with the obs observer attached and spans around every layer call,
// then the layer ladder.
func tracedRun(cfg *config, w workloadFunc) (result, map[string]any, error) {
	refWall, err := referenceWall(cfg, w)
	if err != nil {
		return result{}, nil, fmt.Errorf("untraced reference pass: %w", err)
	}
	tr := newTracer()
	m, err := w(cfg, tr)
	if err != nil {
		return result{}, nil, err
	}
	lad, err := runLadder(cfg, tr)
	if err != nil {
		return result{}, nil, fmt.Errorf("ladder: %w", err)
	}
	lad.metrics["obs.tracing_overhead_pct"] = metric{(m.wall.Seconds()/refWall - 1) * 100, "%"}
	report := passReport(m)
	report["untraced_reference_wall_s"] = refWall
	report["spans"] = tr.summary()
	report["ladder"] = lad.report
	res := result{
		Correct:   m.correct() && len(lad.problems) == 0,
		Attempted: m.attempted + lad.attempted,
		Failed:    m.failed + len(lad.problems),
		Metrics:   lad.metrics,
	}
	if len(lad.problems) > 0 {
		report["ladder_problems"] = lad.problems
	}
	if len(lad.warnings) > 0 {
		report["ladder_warnings"] = lad.warnings
	}
	return res, report, nil
}

// referenceWall is the wall time of an untraced pass of the same workload,
// seed and length. The in-process workloads run it in a child process, so
// this process's population memo stays cold for the traced pass; the
// daemon's populations live in the daemons each pass starts afresh, so its
// reference pass runs here.
func referenceWall(cfg *config, w workloadFunc) (float64, error) {
	if cfg.workload != "daemon" {
		return childWall(cfg)
	}
	m, err := w(cfg, nil)
	if err != nil {
		return 0, err
	}
	if !m.correct() {
		return 0, errors.New("reference pass reported incorrect output")
	}
	return m.wall.Seconds(), nil
}

// childWall runs this benchmark untraced in a child process on the same
// workload, seed and length, and returns its wall_s.
func childWall(cfg *config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-root", cfg.root, "-partitiond", cfg.partitiond,
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0")
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, err
	}
	if !res.Correct {
		return 0, errors.New("reference pass reported incorrect output")
	}
	return res.Metrics["wall_s"].Value, nil
}

func printLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
