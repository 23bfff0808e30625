package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/attack"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config sizes a Service.
type Config struct {
	// StateDir is the persistence root: spec sidecars, checkpoint journals,
	// and the content-addressed result cache all live here.
	StateDir string
	// Workers bounds concurrently running jobs (<= 0 means one per CPU —
	// parallel.DefaultWorkers).
	Workers int
	// Queue bounds admitted-but-not-running jobs; a submission past it is
	// refused (the HTTP layer's 429). <= 0 means no queueing: a job is
	// admitted only when a worker is free.
	Queue int
	// FS is the filesystem seam all persistence (sidecars, journals,
	// results) runs through; nil means the real filesystem. The chaos
	// harness injects an iofault.ChaosFS here (DESIGN.md §15).
	FS iofault.FS
}

// Service is the resident experiment runner behind partitiond: it accepts
// specs, runs them as supervised jobs on a bounded pool, content-addresses
// every result by the spec fingerprint, and drains gracefully through the
// checkpoint layer so a killed daemon's jobs resume byte-identically.
type Service struct {
	cfg   Config
	state *stateDir
	pool  *parallel.Pool

	mu   sync.Mutex
	jobs map[string]*job
}

// New builds a Service and resurrects any unfinished jobs a previous daemon
// left in the state directory (their spec sidecars have no result). The
// returned names list the resurrected fingerprints, in deterministic order.
func New(cfg Config) (*Service, []string, error) {
	state, err := newStateDir(cfg.StateDir, cfg.FS)
	if err != nil {
		return nil, nil, err
	}
	s := &Service{
		cfg:   cfg,
		state: state,
		pool:  parallel.NewPool(cfg.Workers, cfg.Queue, nil),
		jobs:  map[string]*job{},
	}
	resurrected, err := s.resurrect()
	if err != nil {
		return nil, nil, err
	}
	return s, resurrected, nil
}

// SubmitStatus classifies a submission.
type SubmitStatus string

const (
	// SubmitAccepted: a fresh job was admitted and will run.
	SubmitAccepted SubmitStatus = "accepted"
	// SubmitCached: the spec's result was already persisted; the job is
	// served from the content-addressed cache without running anything.
	SubmitCached SubmitStatus = "cached"
	// SubmitExists: the same spec is already tracked (queued, running, or
	// finished) — submissions coalesce on the fingerprint.
	SubmitExists SubmitStatus = "exists"
	// SubmitRefused: admission control turned the job away (queue full or
	// the daemon is draining) — the HTTP 429.
	SubmitRefused SubmitStatus = "refused"
)

// Submit parses, validates, fingerprints, and (if new) admits a spec. A
// command outside the command table is refused by the parse, before
// anything is fingerprinted, stored or queued.
func (s *Service) Submit(raw []byte) (View, SubmitStatus, error) {
	spec, err := core.ParseSpec(raw)
	if err != nil {
		return View{}, "", err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return View{}, "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[fp]; ok {
		return existing.view(), SubmitExists, nil
	}
	// The content-addressed cache: identical canonical specs are served the
	// persisted bytes without re-running anything.
	if output, meta, ok := s.state.loadResult(fp); ok {
		j := newJob(spec, fp, nil)
		j.cacheHit = true
		j.finish(StateDone, output, meta.Exit, "")
		j.replayed, j.faults = meta.Replayed, meta.Faults
		s.jobs[fp] = j
		return j.view(), SubmitCached, nil
	}
	j := newJob(spec, fp, obs.New(0))
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return View{}, "", err
	}
	// Write-ahead: persist the spec before admission so a daemon killed
	// mid-job can rebuild it from the sidecar alone.
	if err := s.state.writeSpec(fp, canonical); err != nil {
		return View{}, "", err
	}
	if !s.pool.TrySubmit(func() { s.runJob(j) }) {
		s.state.dropSpec(fp)
		return View{}, SubmitRefused, nil
	}
	s.jobs[fp] = j
	return j.view(), SubmitAccepted, nil
}

// resurrect resubmits every unfinished spec sidecar — the restart half of
// the graceful-drain contract. Sidecars that no longer parse, or whose
// content fingerprints differently than their filename claims, are corrupt:
// they are quarantined (renamed to `.bad`, counted on /v1/healthz) so
// damage stays distinguishable from "no job". Sidecars past the admission
// queue stay unfinished for the next restart.
func (s *Service) resurrect() ([]string, error) {
	fps, err := s.state.unfinished()
	if err != nil {
		return nil, err
	}
	var resurrected []string
	for _, fp := range fps {
		raw, err := s.state.readSpec(fp)
		if err != nil {
			continue
		}
		spec, err := core.ParseSpec(raw)
		if err != nil {
			s.state.quarantine(s.state.specPath(fp))
			continue
		}
		if got, err := spec.Fingerprint(); err != nil || got != fp {
			// The sidecar parses but is not the spec its name claims — a
			// partially overwritten or cross-linked artifact.
			s.state.quarantine(s.state.specPath(fp))
			continue
		}
		j := newJob(spec, fp, obs.New(0))
		s.mu.Lock()
		if !s.pool.TrySubmit(func() { s.runJob(j) }) {
			s.mu.Unlock()
			break
		}
		s.jobs[fp] = j
		s.mu.Unlock()
		resurrected = append(resurrected, fp)
	}
	return resurrected, nil
}

// runJob executes one admitted job on a pool worker. Panics in experiment
// code are caught here and turn the job failed instead of poisoning the
// worker; the pool's own supervisor is the backstop.
func (s *Service) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			j.finish(StateFailed, nil, ExitHardError, fmt.Sprintf("job panic: %v", r))
		}
	}()
	j.setRunning()
	opts := RunOptions{
		Extra:   []core.Option{core.WithObserver(j.observer)},
		Degrade: true,
		Quit:    s.pool.Draining,
	}
	// `experiment all` jobs run checkpointed: the journal is what makes the
	// drain/restart cycle lossless. The daemon always journals in Sync mode
	// — its durability promise is power-off, not just process-crash. Other
	// commands run to completion — they have no boundary to stop at — and a
	// drained daemon simply waits.
	if j.spec.Run == core.ExperimentAll {
		path := s.state.journalPath(j.fp)
		jopts := checkpoint.JournalOptions{FS: s.state.fs, Sync: true}
		var (
			journal *checkpoint.Journal
			resume  *checkpoint.Log
			err     error
		)
		if s.state.hasJournal(j.fp) {
			journal, resume, err = checkpoint.ResumeJournal(path, j.fp, jopts)
			if err != nil && !iofault.IsTransient(err) {
				// A journal that cannot be resumed (corrupt beyond the
				// valid-prefix recovery, wrong fingerprint) is quarantined
				// and the job re-runs from scratch — graceful degradation,
				// not a dead job.
				s.state.quarantine(path)
				journal, resume, err = nil, nil, nil
			}
		}
		if journal == nil && err == nil {
			canonical, cerr := j.spec.CanonicalJSON()
			if cerr != nil {
				j.finish(StateFailed, nil, ExitHardError, cerr.Error())
				return
			}
			jopts.Spec = canonical
			journal, err = checkpoint.CreateJournal(path, j.fp, jopts)
		}
		if err != nil {
			if s.readmit(j, err) {
				return
			}
			j.finish(StateFailed, nil, ExitHardError, err.Error())
			return
		}
		defer func() {
			_ = journal.Close() // every record is flushed (and fsynced) at Append; Close has nothing left to lose
		}()
		opts.Journal, opts.Resume = journal, resume
	}
	res, err := RunSpec(j.spec, opts)
	switch {
	case err != nil:
		if s.readmit(j, err) {
			return
		}
		// Hard errors are deterministic in the spec; drop the sidecar so a
		// restarted daemon does not retry a run that can only fail again.
		s.state.dropSpec(j.fp)
		j.finish(StateFailed, nil, ExitHardError, err.Error())
	case res.Stopped:
		// Graceful drain: the journal holds the completed prefix and the
		// sidecar stays — the restarted daemon resumes this job.
		j.finish(StateInterrupted, nil, 0, "")
	default:
		output := []byte(res.Output)
		meta := jobMeta{Fingerprint: j.fp, Exit: res.Exit, Faults: len(res.Faults), Replayed: res.Replayed}
		if err := s.state.writeResult(j.fp, output, meta); err != nil {
			if s.readmit(j, err) {
				return
			}
			j.finish(StateFailed, nil, ExitHardError, err.Error())
			return
		}
		j.mu.Lock()
		j.replayed, j.faults = res.Replayed, len(res.Faults)
		j.mu.Unlock()
		j.finish(StateDone, output, res.Exit, "")
	}
}

// readmit handles a job that failed on a transient I/O fault
// (iofault.IsTransient): up to maxReadmissions times the job waits out a
// deterministic capped backoff and runs again — its sidecar (and any
// journal) are still on disk, so a retry resumes rather than restarts.
// Returns false when the error is not transient or the retry budget is
// exhausted; the caller then fails the job. When the pool cannot take the
// resubmission the job retries on this worker — it was promised execution
// — unless the daemon is draining, where it parks as interrupted (sidecar
// intact, the restarted daemon resurrects it).
func (s *Service) readmit(j *job, err error) bool {
	if !iofault.IsTransient(err) {
		return false
	}
	attempt, ok := j.tryAttempt(maxReadmissions)
	if !ok {
		return false
	}
	j.setQueued()
	retrySleep(readmitBackoff(j.fp, attempt))
	if s.pool.TrySubmit(func() { s.runJob(j) }) {
		return true
	}
	if s.pool.Draining() {
		j.finish(StateInterrupted, nil, 0, "")
		return true
	}
	s.runJob(j)
	return true
}

// Status returns the job's current view.
func (s *Service) Status(id string) (View, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// Jobs lists every tracked job, sorted by id for a deterministic listing.
func (s *Service) Jobs() []View {
	s.mu.Lock()
	views := make([]View, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].ID < views[k].ID })
	return views
}

// Result returns a done job's output bytes and exit classification.
func (s *Service) Result(id string) (output []byte, exit int, ok bool) {
	s.mu.Lock()
	j, tracked := s.jobs[id]
	s.mu.Unlock()
	if !tracked {
		return nil, 0, false
	}
	return j.result()
}

// TraceSince returns the job's trace events at or past the cursor plus the
// next cursor and whether the job has reached a terminal state — the poll
// the NDJSON streaming endpoint drives. Cache-served jobs have no live
// tracer and report done with no events.
func (s *Service) TraceSince(id string, cursor uint64) (events []obs.Event, next uint64, done bool, ok bool) {
	s.mu.Lock()
	j, tracked := s.jobs[id]
	s.mu.Unlock()
	if !tracked {
		return nil, cursor, false, false
	}
	events, next = j.observer.Tracer().EventsSince(cursor)
	return events, next, j.terminal(), true
}

// Wait blocks until the job reaches a terminal state.
//
//lint:ignore unusedexport test harness: the service, daemon and chaos tests block on job completion through it
func (s *Service) Wait(id string) (View, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return View{}, false
	}
	<-j.done
	return j.view(), true
}

// PlanInfo describes one registered attack plan for /v1/plans.
type PlanInfo struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params"`
}

// Plans renders the attack registry with each plan's canonical parameter
// document, sorted by name.
func Plans() ([]PlanInfo, error) {
	names := attack.PlanNames()
	infos := make([]PlanInfo, 0, len(names))
	for _, name := range names {
		params, err := attack.PlanParams(name)
		if err != nil {
			return nil, err
		}
		infos = append(infos, PlanInfo{Name: name, Params: params})
	}
	return infos, nil
}

// Queued and Running expose the pool gauges for /v1/healthz.
func (s *Service) Queued() int  { return s.pool.Queued() }
func (s *Service) Running() int { return s.pool.Running() }

// Quarantined counts corrupt state-dir artifacts renamed to `.bad` — the
// /v1/healthz faults_quarantined gauge.
func (s *Service) Quarantined() int { return len(s.state.Quarantined()) }

// QuarantinedArtifacts lists the quarantined artifact names, sorted — the
// daemon's startup log line.
func (s *Service) QuarantinedArtifacts() []string { return s.state.Quarantined() }

// OrphanedTmp lists the `*.tmp` files garbage-collected at startup.
func (s *Service) OrphanedTmp() []string { return s.state.Orphans() }

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool { return s.pool.Draining() }

// Drain closes admission and blocks until every admitted job has reached a
// terminal state: running checkpointed sweeps stop at their next experiment
// boundary (StateInterrupted, journal intact), everything else finishes.
// Call exactly once, at shutdown.
func (s *Service) Drain() {
	s.pool.Drain()
}
