package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// knownSpatialRace describes a defect of the program that the daemon
// workload steps around rather than counts: it strikes on timing alone, so
// its failure count would differ between runs of one seed. The clients
// never have two `attack spatial` ops of one seed in flight at once (see
// spatialLocks), and every failure or mismatch makes the run incorrect.
const knownSpatialRace = "`attack spatial` announces and withdraws hijacks in the route table of the seed's memoized population, which every study of that seed shares; " +
	"two such jobs on one seed running at once on the daemon's two workers race on it: one fails with \"route ... already announced\" (leaving its partial announcements behind for later jobs on that seed) " +
	"or reports a capture count that differs from a run on its own. Repro: two concurrent service.RunSpec calls of attack spatial with the same seed and different network_nodes. " +
	"The daemon workload's clients hold a per-seed lock around attack spatial ops, so the race cannot strike during measurement."

const (
	// daemonClients is the number of closed-loop clients, each with its
	// own connection: at most one per CPU on the reference host.
	daemonClients = 2
	// daemonStarts is how many times set-up is repeated; setup_s is the
	// median.
	daemonStarts = 9
	// A client polls a running job's status after pollFirst, doubling the
	// wait up to pollMax: short jobs are seen done within a millisecond or
	// two, long ones cost few polls (each poll takes daemon CPU from the
	// workers).
	pollFirst = time.Millisecond
	pollMax   = 8 * time.Millisecond
)

// runDaemon drives the real partitiond binary on loopback. Set-up computes
// the expected output of every spec in process, lets an earlier daemon
// persist the hit and cached sets into the state dir, starts the measured
// daemon over it, and has it answer the hit set once. Then two closed-loop
// clients work through the fixed op list: submit, wait, fetch the result,
// compare it with the in-process output.
func runDaemon(cfg *config, tr *tracer) (*measured, error) {
	cat := buildCatalog(cfg.seed, cfg.seconds)
	m := &measured{}

	if cfg.daemonWant == nil {
		t0 := time.Now()
		want, err := expectedOutputs(cat)
		if err != nil {
			return nil, err
		}
		cfg.daemonWant = want
		logf("daemon: %d specs computed in process in %.1fs", len(want), time.Since(t0).Seconds())
	}
	want := cfg.daemonWant

	// Each pass has its own state dir and daemons, so the traced run's two
	// passes start from the same state.
	pass := "untraced"
	if tr != nil {
		pass = "traced"
	}
	state := filepath.Join(cfg.work, "state-"+pass)
	early, _, err := startDaemon(cfg, state, pass+"-early")
	if err != nil {
		return nil, err
	}
	preload := append(append([]int{}, cat.hits...), cat.cached...)
	preClients := []*client{newClient(early.addr), newClient(early.addr)}
	perr := forEachParallel(len(preload), func(w, i int) error {
		c := preClients[w]
		idx := preload[i]
		_, view, code, err := c.submit(cat.specs[idx])
		if err != nil {
			return err
		}
		if code == http.StatusTooManyRequests {
			return errors.New("preload refused")
		}
		_, err = c.wait(view.ID, nil, -1, -1)
		return err
	})
	for _, c := range preClients {
		c.http.CloseIdleConnections()
	}
	if err := early.stop(); err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, fmt.Errorf("preload: %w", perr)
	}

	// Set-up, repeated daemonStarts times: start the measured daemon over
	// the prepared state dir and have it answer the hit set once (from
	// disk), so every later submission of a hit spec is a repeat it
	// already answered. Each restart empties the daemon's job table, so
	// every repeat does the same work; the last daemon is measured.
	var (
		d    *daemonProc
		warm *client
	)
	for k := 0; k < daemonStarts; k++ {
		var ready time.Duration
		t0 := time.Now()
		d, ready, err = startDaemon(cfg, state, fmt.Sprintf("%s-measured-%d", pass, k))
		if err != nil {
			return nil, err
		}
		warm = newClient(d.addr)
		for _, idx := range cat.hits {
			out, status, err := warm.roundTrip(cat.specs[idx], nil, -1, -1)
			if err != nil {
				_ = d.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if status != service.SubmitCached {
				_ = d.stop()
				return nil, fmt.Errorf("warm-up: hit spec answered %q, want cached", status)
			}
			if !bytes.Equal(out, want[idx]) {
				m.mismatch("warm-up " + cat.specs[idx].Run.String())
			}
		}
		m.setups = append(m.setups, time.Since(t0))
		warm.http.CloseIdleConnections()
		logf("daemon: set-up %d: ready in %.1fms, hit set answered in %.1fms", k, ms(ready), ms(time.Since(t0)))
		if k < daemonStarts-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()

	type sample struct {
		ms     float64
		kind   daemonOpKind
		status service.SubmitStatus
		err    error
		wrong  bool
	}
	samples := make([]sample, len(cat.ops))
	spatial := spatialLocks(cat)
	var next atomic.Int64
	logf("daemon: %d ops, %d closed-loop clients", len(cat.ops), daemonClients)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(daemonClients)
	for w := 0; w < daemonClients; w++ {
		go func() {
			defer wg.Done()
			c := newClient(d.addr)
			defer c.http.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cat.ops) {
					return
				}
				op := cat.ops[i]
				lock := spatial[op.spec]
				if lock != nil {
					lock.Lock()
				}
				t := time.Now()
				root := tr.begin(i, "daemon.op", -1)
				out, status, err := c.roundTrip(cat.specs[op.spec], tr, i, root)
				tr.end(root)
				if lock != nil {
					lock.Unlock()
				}
				s := sample{ms: ms(time.Since(t)), kind: op.kind, status: status, err: err}
				s.wrong = err == nil && !bytes.Equal(out, want[op.spec])
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	m.wall = time.Since(start)
	m.peakRSSMB = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))

	byStatus := map[service.SubmitStatus]int{}
	var hitMs, freshMs, cachedMs []float64
	// busyMs is client wait per op class: where the closed loop spends its
	// wall time.
	busyMs := map[string]float64{}
	for i, s := range samples {
		m.attempted++
		m.latMs = append(m.latMs, s.ms)
		spec := cat.specs[cat.ops[i].spec]
		switch {
		case s.err != nil:
			m.fail(fmt.Errorf("op %d (%s seed %d): %w", i, spec.Run, spec.Seed, s.err), false)
			continue
		case s.wrong:
			m.mismatch(fmt.Sprintf("op %d (%s seed %d)", i, spec.Run, spec.Seed))
			continue
		}
		byStatus[s.status]++
		switch s.kind {
		case opFresh:
			busyMs["fresh "+spec.Run.String()] += s.ms
		case opCached:
			busyMs["cached"] += s.ms
		default:
			busyMs["hit"] += s.ms
		}
		switch s.status {
		case service.SubmitExists, service.SubmitCached:
			hitMs = append(hitMs, s.ms)
		}
		switch s.kind {
		case opFresh:
			freshMs = append(freshMs, s.ms)
		case opCached:
			cachedMs = append(cachedMs, s.ms)
		}
	}
	m.report = map[string]any{
		"inputs": map[string]any{
			"catalog_specs":        len(cat.specs),
			"study_seeds":          len(cat.seeds),
			"ops":                  len(cat.ops),
			"hit_share":            float64(len(hitMs)) / float64(max(len(cat.ops), 1)),
			"fresh_new_seed_share": freshNewSeedShare(cat),
			"fresh_cheap_share":    freshCheapShare(cat),
			"clients":              daemonClients,
			"daemon_jobs":          runtime.NumCPU(),
		},
		"by_status":      byStatus,
		"client_busy_ms": busyMs,
		"latency_hit":    summarize(hitMs),
		"latency_fresh":  summarize(freshMs),
		"latency_cached": summarize(cachedMs),
		"known_defect":   knownSpatialRace,
		"metrics_note":   "latency_p50_ms, latency_p99_ms, hit_p99_ms and fresh_p50_ms are latency.p50_ms, latency.p99_ms, latency_hit.p99_ms and latency_fresh.p50_ms here; a percentile is null when fewer than 10 samples lie beyond it",
	}
	return m, nil
}

// spatialLocks maps the catalog index of every `attack spatial` spec to a
// lock shared by all such specs of its study seed. A client holds it for
// the whole op, so two spatial jobs of one seed never run at once on the
// daemon (see knownSpatialRace). Time spent waiting for it is not op
// latency; it is in wall_s.
func spatialLocks(cat *catalog) map[int]*sync.Mutex {
	bySeed := map[int64]*sync.Mutex{}
	locks := map[int]*sync.Mutex{}
	for i, spec := range cat.specs {
		if spec.Run != (core.Command{Verb: "attack", Name: "spatial"}) {
			continue
		}
		if bySeed[spec.Seed] == nil {
			bySeed[spec.Seed] = &sync.Mutex{}
		}
		locks[i] = bySeed[spec.Seed]
	}
	return locks
}

// expectedOutputs runs every spec the op list uses in process through
// service.RunSpec. Specs of one study seed run one after another (seeds in
// parallel): `attack spatial` writes the seed's shared route table, so two
// of them on one seed must not overlap (see knownSpatialRace).
func expectedOutputs(cat *catalog) (map[int][]byte, error) {
	need := map[int]bool{}
	for _, i := range cat.hits {
		need[i] = true
	}
	for _, op := range cat.ops {
		need[op.spec] = true
	}
	bySeed := make([][]int, len(cat.seeds))
	for i, spec := range cat.specs {
		if !need[i] {
			continue
		}
		for k, s := range cat.seeds {
			if spec.Seed == s {
				bySeed[k] = append(bySeed[k], i)
			}
		}
	}
	outs := make([][]byte, len(cat.specs))
	err := forEachParallel(len(bySeed), func(_, k int) error {
		for _, i := range bySeed[k] {
			res, err := service.RunSpec(cat.specs[i], service.RunOptions{})
			if err != nil {
				return fmt.Errorf("in-process %s: %w", cat.specs[i].Run, err)
			}
			outs[i] = []byte(res.Output)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	want := make(map[int][]byte, len(need))
	for i := range need {
		want[i] = outs[i]
	}
	return want, nil
}

// freshNewSeedShare is the share of fresh ops that are the first fresh op
// of their study seed in op order: the measured daemon has built no
// population when it starts (its hits come from disk), so those pay
// population generation.
func freshNewSeedShare(cat *catalog) float64 {
	seen := map[int64]bool{}
	n, first := 0, 0
	for _, op := range cat.ops {
		if op.kind != opFresh {
			continue
		}
		n++
		if s := cat.specs[op.spec].Seed; !seen[s] {
			seen[s] = true
			first++
		}
	}
	return float64(first) / float64(max(n, 1))
}

// freshCheapShare is the share of fresh ops whose command ignores
// network_nodes: a cache keyed on the knobs a command reads would serve
// them as hits.
func freshCheapShare(cat *catalog) float64 {
	n, cheap := 0, 0
	for _, op := range cat.ops {
		if op.kind != opFresh {
			continue
		}
		n++
		if cat.specs[op.spec].NetworkNodes >= 5000 {
			cheap++
		}
	}
	return float64(cheap) / float64(max(n, 1))
}

// forEachParallel runs f(w, i) for i in 0..n-1 on one goroutine per CPU,
// w being the goroutine's index, and returns the first error.
func forEachParallel(n int, f func(w, i int) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		mu    sync.Mutex
		first error
	)
	workers := min(runtime.NumCPU(), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := f(w, i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// daemonProc is a running partitiond.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startDaemon starts partitiond over the state dir and returns once it
// answers /v1/healthz, with the time that took.
func startDaemon(cfg *config, state, name string) (*daemonProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(filepath.Join(cfg.work, "partitiond-"+name+".log"))
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(cfg.partitiond, "serve", "-addr", addr, "-state", state,
		"-jobs", strconv.Itoa(runtime.NumCPU()), "-queue", "64")
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = childAttr()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, err
	}
	d := &daemonProc{cmd: cmd, addr: addr, log: logFile}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready := time.Since(t0)
				probe.CloseIdleConnections()
				return d, ready, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			_ = d.stop()
			return nil, 0, fmt.Errorf("partitiond %s did not become ready: %v", name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("partitiond did not drain within 30s; killed")
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

type submitReply struct {
	Status service.SubmitStatus `json:"status"`
	Job    service.View         `json:"job"`
}

// submit posts a spec document.
func (c *client) submit(spec core.Spec) (service.SubmitStatus, service.View, int, error) {
	doc, err := spec.CanonicalJSON()
	if err != nil {
		return "", service.View{}, 0, err
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return "", service.View{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", service.View{}, 0, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return service.SubmitRefused, service.View{}, resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", service.View{}, resp.StatusCode, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var r submitReply
	if err := json.Unmarshal(body, &r); err != nil {
		return "", service.View{}, resp.StatusCode, err
	}
	return r.Status, r.Job, resp.StatusCode, nil
}

// wait polls the job until it is terminal and returns its final view.
func (c *client) wait(id string, tr *tracer, op, parent int) (service.View, error) {
	pause := pollFirst
	for {
		var v service.View
		i := tr.begin(op, "http.poll", parent)
		err := c.getJSON("/v1/jobs/"+id, &v)
		tr.end(i)
		if err != nil {
			return v, err
		}
		if v.State.Terminal() {
			if v.State != service.StateDone {
				return v, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
			}
			return v, nil
		}
		time.Sleep(pause)
		pause = min(2*pause, pollMax)
	}
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.Unmarshal(body, v)
}

// result fetches a done job's output bytes.
func (c *client) result(id string) ([]byte, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: %s", id, resp.Status)
	}
	return body, nil
}

// roundTrip is one op: submit, wait until done, fetch the result.
func (c *client) roundTrip(spec core.Spec, tr *tracer, op, parent int) ([]byte, service.SubmitStatus, error) {
	i := tr.begin(op, "http.submit", parent)
	status, view, _, err := c.submit(spec)
	tr.end(i)
	if err != nil {
		return nil, status, err
	}
	if status == service.SubmitRefused {
		return nil, status, errors.New("refused (429)")
	}
	if !view.State.Terminal() {
		if view, err = c.wait(view.ID, tr, op, parent); err != nil {
			return nil, status, err
		}
	} else if view.State != service.StateDone {
		return nil, status, fmt.Errorf("job %s is %s: %s", view.ID, view.State, view.Error)
	}
	i = tr.begin(op, "http.result", parent)
	out, err := c.result(view.ID)
	tr.end(i)
	return out, status, err
}
