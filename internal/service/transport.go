package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// This file is the daemon's HTTP boundary — the only part of the service
// allowed to touch the wall clock (the wallclock analyzer exempts
// transport*.go in this package): stream pacing and poll intervals are
// transport concerns, and none of them can reach a simulation. Everything
// simulation-facing goes through Service methods, which stay wall-clock
// free.

// maxSpecBytes bounds a submitted spec document. Specs are small (a few
// hundred bytes); the bound keeps a misbehaving client from buffering
// arbitrary data into the daemon.
const maxSpecBytes = 1 << 20

// tracePollInterval paces the NDJSON trace stream between empty polls.
const tracePollInterval = 25 * time.Millisecond

// Server hardening bounds. A daemon on a shared host must not let one slow
// or stalled client pin a connection (slowloris): request reading and idle
// keep-alives are all deadline-bounded. The write timeout is generous
// because results can be large; the trace stream, which legitimately stays
// open for a job's whole lifetime, clears its deadline explicitly.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// NewServer builds the hardened http.Server partitiond serves on.
func NewServer(addr string, s *Service) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           Handler(s),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// retrySleep pauses a transiently-failed job's backoff window before
// re-admission. A variable so tests can make the wait instantaneous; the
// backoff duration itself is computed deterministically (see retry.go) —
// only the waiting touches the clock, and only in this transport file.
var retrySleep = time.Sleep

// Handler builds the partitiond HTTP API over the service:
//
//	POST /v1/jobs            submit a spec; 202 accepted, 200 cached/exists,
//	                         429 refused (admission control), 400 invalid,
//	                         413 spec larger than maxSpecBytes
//	GET  /v1/jobs            list tracked jobs
//	GET  /v1/jobs/{id}       job status
//	GET  /v1/jobs/{id}/result the raw output bytes of a done job
//	GET  /v1/jobs/{id}/trace  live NDJSON trace stream (obs.trace.v1 framing)
//	GET  /v1/plans           the attack registry with canonical parameters
//	GET  /v1/healthz         daemon health and pool gauges
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("spec exceeds %d bytes", tooLarge.Limit))
			return
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("read spec: %v", err))
			return
		}
		view, status, err := s.Submit(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		switch status {
		case SubmitRefused:
			httpError(w, http.StatusTooManyRequests, "admission refused: queue full or daemon draining")
		case SubmitAccepted:
			writeJSON(w, http.StatusAccepted, submitReply{Status: status, Job: view})
		default: // cached, exists
			writeJSON(w, http.StatusOK, submitReply{Status: status, Job: view})
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, ok := s.Status(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		output, exit, ok := s.Result(id)
		if !ok {
			view, tracked := s.Status(id)
			if !tracked {
				httpError(w, http.StatusNotFound, "unknown job")
				return
			}
			httpError(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", view.State))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Partition-Exit", fmt.Sprintf("%d", exit))
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(output); err != nil {
			return // client went away; a partial body cannot be salvaged
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		streamTrace(s, w, r.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		plans, err := Plans()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, plans)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, health{
			Status:            "ok",
			Queued:            s.Queued(),
			Running:           s.Running(),
			Draining:          s.Draining(),
			FaultsQuarantined: s.Quarantined(),
		})
	})
	return mux
}

// submitReply is the POST /v1/jobs response document.
type submitReply struct {
	Status SubmitStatus `json:"status"`
	Job    View         `json:"job"`
}

// health is the /v1/healthz document.
type health struct {
	Status   string `json:"status"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Draining bool   `json:"draining"`
	// FaultsQuarantined counts corrupt state-dir artifacts renamed to
	// `.bad` — nonzero means the disk has eaten something and a human
	// should look at the quarantine.
	FaultsQuarantined int `json:"faults_quarantined"`
}

// streamTrace follows a job's trace as NDJSON in the obs.trace.v1 framing
// (header with events:-1, then one event per line), flushing each batch so a
// live consumer sees events as the job emits them, and closing when the job
// reaches a terminal state and the tail is drained.
func streamTrace(s *Service, w http.ResponseWriter, id string) {
	if _, ok := s.Status(id); !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	// The stream legitimately outlives the server's WriteTimeout — it stays
	// open until the job finishes. Clear the per-request write deadline for
	// this response only; every other endpoint keeps the hardened bound.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc, err := obs.NewStreamEncoder(w)
	if err != nil {
		return
	}
	flush(w)
	var cursor uint64
	for {
		events, next, done, ok := s.TraceSince(id, cursor)
		if !ok {
			return
		}
		if len(events) > 0 {
			if err := enc.Encode(events...); err != nil {
				return // client went away
			}
			flush(w)
		}
		cursor = next
		if done && len(events) == 0 {
			return
		}
		if len(events) == 0 {
			time.Sleep(tracePollInterval)
		}
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
