package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/parallel"
)

// maxBodyBytes bounds an uploaded job body (problems are uploaded
// inline as text).
const maxBodyBytes = 64 << 20

// maxHandoffBytes bounds a POST /v1/handoff body: a job spec plus
// base64-encoded canonical problem and checkpoint payloads, so the
// limit sits above maxBodyBytes with room for the encoding overhead.
const maxHandoffBytes = 256 << 20

// SSE stream tuning: how often an idle stream emits a ": keepalive"
// comment, and the per-write deadline each event write arms (a client
// that cannot absorb a write within it is dropped).
const (
	sseKeepaliveEvery = 15 * time.Second
	sseWriteTimeout   = 30 * time.Second
)

// Server is the HTTP surface over a job backend. The CRUD routes
// (submit, status, list, cancel, requeue, result) go through the
// transport-agnostic Backend interface; the event stream, metrics and
// health endpoints need the local Manager (SSE brokers and counter
// snapshots have no remote form — the cluster router proxies those
// routes raw instead).
type Server struct {
	be  Backend
	mgr *Manager
	mux *http.ServeMux
	// drainFn, when set via SetDrainFunc, is what POST /v1/drain
	// invokes (once) to begin a full drain — the daemon wires it to
	// the same shutdown path SIGTERM takes, so an HTTP drain also
	// hands queued jobs to ring successors and exits. Without it the
	// handler falls back to draining the manager in place (the process
	// keeps serving reads).
	drainFn   func()
	drainOnce sync.Once
}

// NewServer builds the HTTP API for a manager. The job routes live
// under /v1/; the unversioned paths are served directly by the same
// handlers (not redirects, so POST bodies and SSE streams work
// unchanged through either prefix).
func NewServer(mgr *Manager) *Server {
	s := &Server{be: LocalBackend{M: mgr}, mgr: mgr, mux: http.NewServeMux()}
	for _, prefix := range []string{"/v1", ""} {
		s.mux.HandleFunc("POST "+prefix+"/jobs", s.handleSubmit)
		s.mux.HandleFunc("GET "+prefix+"/jobs", s.handleList)
		s.mux.HandleFunc("GET "+prefix+"/jobs/{id}", s.handleStatus)
		s.mux.HandleFunc("GET "+prefix+"/jobs/{id}/result", s.handleResult)
		s.mux.HandleFunc("GET "+prefix+"/jobs/{id}/events", s.handleEvents)
		s.mux.HandleFunc("POST "+prefix+"/jobs/{id}/requeue", s.handleRequeue)
		s.mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", s.handleCancel)
		s.mux.HandleFunc("GET "+prefix+"/cache/{key}", s.handleCacheGet)
		s.mux.HandleFunc("POST "+prefix+"/drain", s.handleDrain)
		s.mux.HandleFunc("POST "+prefix+"/handoff", s.handleHandoff)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorDetail is the payload of the JSON error envelope: a stable
// machine-readable code plus a human-readable message.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the JSON error envelope: {"error": {"code", "message"}}.
// Every non-2xx response from the job API uses this shape.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// Error codes used by the job API.
const (
	errBadRequest     = "bad_request"
	errNotFound       = "not_found"
	errNotReady       = "not_ready"
	errQueueFull      = "queue_full"
	errDraining       = "draining"
	errInternal       = "internal"
	errUnsupported    = "unsupported"
	errTooLarge       = "body_too_large"
	errOverloaded     = "overloaded"
	errDiskPressure   = "disk_pressure"
	errNotQuarantined = "not_quarantined"
	errCacheMiss      = "cache_miss"
	errTenantQuota    = "tenant_quota"
	errHandedOff      = "handed_off"
)

// CacheSHA256Header carries the hex SHA-256 of a GET /v1/cache/{key}
// payload; peer-fill clients recompute and reject on mismatch, so a
// corrupted (or actively wrong) peer response can never enter a
// node's cache.
const CacheSHA256Header = "X-Netalign-Sha256"

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, errTooLarge,
				"job body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "decode job spec: %v", err)
		return
	}
	st, err := s.be.Submit(spec)
	// Every 429's Retry-After is tenant-scoped: the hint is the
	// submitting tenant's own backlog over its own drain rate, so one
	// tenant's flood never inflates another tenant's backoff.
	retryAfter := func() string {
		return strconv.FormatInt(s.mgr.TenantRetryAfterSeconds(spec.tenantName()), 10)
	}
	switch {
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
	case errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", retryAfter())
		writeError(w, http.StatusTooManyRequests, errTenantQuota, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter())
		writeError(w, http.StatusTooManyRequests, errQueueFull, "%v", err)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfter())
		writeError(w, http.StatusTooManyRequests, errOverloaded, "%v", err)
	case errors.Is(err, ErrDiskPressure):
		writeError(w, http.StatusServiceUnavailable, errDiskPressure, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, errDraining, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// ?state=&tenant=&class= filter the listing and compose (AND). The
	// operator's main uses are ?state=quarantined — the jobs needing a
	// requeue decision — and ?tenant=X, one tenant's traffic.
	q := r.URL.Query()
	f := ListFilter{
		State:  State(q.Get("state")),
		Tenant: q.Get("tenant"),
		Class:  q.Get("class"),
	}
	if f.State != "" && !validState(f.State) {
		writeError(w, http.StatusBadRequest, errBadRequest, "unknown state %q", f.State)
		return
	}
	switch f.Class {
	case "", ClassInteractive, ClassBatch:
	default:
		writeError(w, http.StatusBadRequest, errBadRequest, "unknown class %q", f.Class)
		return
	}
	if err := validTenant(f.Tenant); err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	list, err := s.be.List(f)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

// handleRequeue puts a quarantined job back in the run queue.
func (s *Server) handleRequeue(w http.ResponseWriter, r *http.Request) {
	st, err := s.be.Requeue(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, errNotFound, "job %s not found", r.PathValue("id"))
	case errors.Is(err, ErrNotQuarantined):
		writeError(w, http.StatusConflict, errNotQuarantined, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, errDraining, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.be.Status(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, errNotFound, "job %s not found", r.PathValue("id"))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.be.Status(id)
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, errNotFound, "job %s not found", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	if !st.State.Terminal() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, errNotReady, "job %s is %s; result not ready", id, st.State)
		return
	}
	rc, size, err := s.be.OpenResult(id)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Terminal without a result: failed before producing one (or
		// cancelled while still queued).
		writeError(w, http.StatusNotFound, errNotFound, "job %s is %s with no result: %s", id, st.State, st.Error)
		return
	case errors.Is(err, ErrNotReady):
		// The job regressed from terminal between the two lookups
		// (requeue race); report like any other not-ready result.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, errNotReady, "job %s result not ready", id)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	defer rc.Close()
	// Stream from the spool file instead of buffering: a result's
	// matching scales with the problem, and holding the whole document
	// per in-flight request multiplies peak memory by concurrency.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.be.Cancel(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, errNotFound, "job %s not found", r.PathValue("id"))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's lifecycle as server-sent events. Each
// event is one of:
//
//	event: state     — a JobStatus snapshot (sent on subscribe and on
//	                   every state change)
//	event: progress  — a core.ProgressEvent per observed iteration
//	event: lagged    — a JobStatus snapshot, sent when this consumer
//	                   was too slow and progress events were dropped
//
// The contract is at-least-once-snapshot: individual progress events
// may be lost to a slow consumer, but the gap is always announced via
// a "lagged" event carrying the job's current state, and a final state
// snapshot always ends a completed stream. The stream ends when the
// job reaches a terminal state or the client disconnects.
//
// A ": keepalive" SSE comment goes out every sseKeepaliveEvery of
// idleness so NATed/proxied connections stay open and a dead client is
// detected even while a long solve produces no events. Every write —
// event or keepalive — resets a per-write deadline through
// http.NewResponseController, which both bounds how long a wedged
// client can pin the handler and exempts the stream from the server's
// global WriteTimeout (which would otherwise kill any SSE stream
// outliving it). Any write error unsubscribes and ends the handler.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound, "job %s not found", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errUnsupported, "streaming unsupported")
		return
	}
	// Subscribe before snapshotting the state so no transition between
	// the snapshot and the subscription is missed.
	sub, cancel := j.eventsBroker().subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ctl := http.NewResponseController(w)
	writeEvent := func(ev Event) bool {
		_ = ctl.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	initial, err := json.Marshal(j.Status())
	if err == nil {
		if !writeEvent(Event{Type: "state", Data: initial}) {
			return
		}
	}
	keepalive := time.NewTicker(sseKeepaliveEvery)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			_ = ctl.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				// Broker closed: the job is terminal. Send a final
				// state snapshot so late transitions are never lost.
				final, err := json.Marshal(j.Status())
				if err == nil {
					writeEvent(Event{Type: "state", Data: final})
				}
				return
			}
			if sub.TakeLagged() {
				// This consumer missed events while stalled; announce
				// the gap with a current snapshot before resuming the
				// buffered stream.
				snap, err := json.Marshal(j.Status())
				if err == nil && !writeEvent(Event{Type: "lagged", Data: snap}) {
					return
				}
			}
			if !writeEvent(ev) {
				return
			}
		}
	}
}

// handleHealthz is pure liveness: 200 whenever the process can answer
// HTTP at all, including while draining or under pressure. Routing
// decisions belong to /readyz — a load balancer that killed a
// draining process on a failed health check would cut off the very
// checkpoint flush that makes the drain safe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the routing signal: 503 while the node would refuse
// new work anyway — draining, shedding for memory, or refusing for
// disk pressure — so the cluster router (and any load balancer)
// steers submissions to nodes that will accept them.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.be.Ready(); err != nil {
		reason := "unready"
		switch {
		case errors.Is(err, ErrDraining):
			reason = "draining"
		case errors.Is(err, ErrOverloaded):
			reason = "memory_pressure"
		case errors.Is(err, ErrDiskPressure):
			reason = "disk_pressure"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleCacheGet serves one result-cache entry by content address —
// the peer-fill protocol: a ring neighbor that misses locally probes
// this endpoint before solving, so results migrate after ring changes
// instead of being recomputed. The payload's SHA-256 rides along in
// CacheSHA256Header for end-to-end validation; lookups bypass the
// node's own hit/miss counters (a neighbor's probe is not this node's
// traffic).
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	data, ok := s.mgr.CachePeek(key)
	if !ok {
		writeError(w, http.StatusNotFound, errCacheMiss, "no cached result for %s", key)
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheSHA256Header, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// SetDrainFunc installs the callback POST /v1/drain invokes to begin
// a full drain. The daemon wires it to the same path SIGTERM takes
// (cancel the serve context → Manager.Shutdown with the drain
// timeout → handoff → exit); tests wire test-local equivalents. Call
// before serving; nil leaves the handler's in-place fallback.
func (s *Server) SetDrainFunc(fn func()) { s.drainFn = fn }

// defaultDrainWait bounds the in-place drain the handler falls back
// to when no drain func is installed.
const defaultDrainWait = 30 * time.Second

// handleDrain begins a proactive drain: the manager stops accepting
// work immediately (readyz flips to draining before the response is
// written, so routers steer away at once) and the full drain —
// cancel running jobs at their next checkpoint boundary, hand queued
// jobs to ring successors — proceeds in the background. 202 always;
// repeated posts are idempotent.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.drainOnce.Do(func() {
		// Flip the readiness signal synchronously: the 202 must imply
		// "no new work will be accepted here".
		s.mgr.draining.Store(true)
		if s.drainFn != nil {
			go s.drainFn()
			return
		}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), defaultDrainWait)
			defer cancel()
			_ = s.mgr.Shutdown(ctx)
		}()
	})
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

// handleHandoff admits a draining peer's exported job (see
// Manager.AdmitHandoff). The same admission gates as a fresh
// submission apply, with the same status codes, so a refused handoff
// makes the sender try the next ring successor.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxHandoffBytes)
	var h HandoffJob
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, errTooLarge,
				"handoff body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "decode handoff: %v", err)
		return
	}
	st, err := s.mgr.AdmitHandoff(&h)
	retryAfter := func() string {
		return strconv.FormatInt(s.mgr.TenantRetryAfterSeconds(h.Spec.tenantName()), 10)
	}
	switch {
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
	case errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", retryAfter())
		writeError(w, http.StatusTooManyRequests, errTenantQuota, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter())
		writeError(w, http.StatusTooManyRequests, errQueueFull, "%v", err)
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", retryAfter())
		writeError(w, http.StatusTooManyRequests, errOverloaded, "%v", err)
	case errors.Is(err, ErrDiskPressure):
		writeError(w, http.StatusServiceUnavailable, errDiskPressure, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, errDraining, "%v", err)
	case errors.Is(err, ErrAlreadyHandedOff):
		// This node gave the id away in an earlier drain and only holds
		// a tombstone; a 202 here would orphan the sender's live copy.
		writeError(w, http.StatusConflict, errHandedOff, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

// PromWriter writes metric families in the Prometheus text exposition
// format (version 0.0.4) for the node's and the router's /metrics.
// Samples print with %v: integers as decimals, float64 as %g.
type PromWriter struct{ W io.Writer }

// Gauge writes a gauge family with one unlabeled sample.
func (p PromWriter) Gauge(name, help string, v any) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
}

// Counter writes a counter family with one unlabeled sample.
func (p PromWriter) Counter(name, help string, v any) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
}

// Labeled writes a family of type typ with one sample per label value,
// in the order given; v returns the sample for a label value.
func (p PromWriter) Labeled(name, help, typ, label string, values []string, v func(string) any) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, lv := range values {
		fmt.Fprintf(p.W, "%s{%s=%q} %v\n", name, label, lv, v(lv))
	}
}

// SortedKeys returns m's keys in increasing order: the label values of
// a labeled family, in a stable order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// handleMetrics renders the manager snapshot in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.mgr.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pw := PromWriter{W: w}
	pw.Gauge("netalignd_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	pw.Gauge("netalignd_queue_depth", "Jobs waiting in the FIFO queue.", float64(m.QueueDepth))
	pw.Gauge("netalignd_jobs_running", "Jobs currently solving.", float64(m.Running))
	pw.Counter("netalignd_jobs_submitted_total", "Jobs accepted.", m.Submitted)
	pw.Counter("netalignd_jobs_resumed_total", "Jobs requeued from the spool at startup.", m.Resumed)
	pw.Counter("netalignd_jobs_interrupted_total", "Runs interrupted by drain or crash.", m.Interrupted)
	pw.Counter("netalignd_jobs_rejected_total", "Submissions rejected by backpressure.", m.Rejected)
	pw.Counter("netalignd_jobs_completed_total", "Jobs finished done.", m.Completed)
	pw.Counter("netalignd_jobs_failed_total", "Jobs finished failed.", m.Failed)
	pw.Counter("netalignd_jobs_cancelled_total", "Jobs cancelled.", m.Cancelled)
	pw.Counter("netalignd_jobs_numerics_total", "Jobs stopped by the numeric guard.", m.Numerics)
	pw.Counter("netalignd_jobs_coalesced_total", "Submissions coalesced onto an identical inflight job.", m.Coalesced)
	pw.Counter("netalignd_jobs_retried_total", "Failed attempts re-enqueued with backoff.", m.Retried)
	pw.Counter("netalignd_jobs_quarantined_total", "Jobs quarantined after exhausting their retry budget or crash-looping.", m.Quarantined)
	pw.Counter("netalignd_jobs_requeued_total", "Quarantined jobs put back by the requeue endpoint.", m.Requeued)
	pw.Counter("netalignd_jobs_stalled_total", "Runs cancelled by the stall watchdog.", m.Stalled)
	pw.Counter("netalignd_jobs_shed_memory_total", "Submissions refused under memory pressure.", m.ShedMemory)
	pw.Counter("netalignd_jobs_refused_disk_total", "Submissions refused under disk pressure.", m.RefusedDisk)
	pw.Counter("netalignd_jobs_preempted_total", "Batch runs checkpoint-preempted for interactive jobs.", m.Preempted)
	pw.Counter("netalignd_jobs_shed_quota_total", "Submissions refused by per-tenant admission quotas.", m.ShedQuota)
	pw.Counter("netalignd_jobs_deadline_expired_total", "Jobs failed because their queue deadline passed before dispatch.", m.Expired)
	pw.Counter("netalignd_handoff_sent_total", "Queued jobs exported to a ring successor during drain.", m.HandoffSent)
	pw.Counter("netalignd_handoff_received_total", "Drained jobs admitted from a peer's handoff.", m.HandoffReceived)
	pw.Counter("netalignd_handoff_failed_total", "Drain exports no peer accepted (job stayed queued in the spool).", m.HandoffFailed)
	pw.Counter("netalignd_checkpoints_discarded_total", "Checkpoints found unreadable or not the job's, discarded for a rerun from scratch.", m.CheckpointsDiscarded)
	pw.Gauge("netalignd_jobs_quarantined", "Jobs currently quarantined.", float64(m.QuarantinedNow))
	pw.Gauge("netalignd_disk_free_bytes", "Free bytes on the spool volume at the last pressure sample.", float64(m.DiskFreeBytes))
	pw.Gauge("netalignd_rss_bytes", "Process resident set size at the last pressure sample.", float64(m.RSSBytes))
	pw.Gauge("netalignd_disk_pressure_level", "Disk pressure level: 0 ok, 1 degraded, 2 refusing.", float64(m.DiskPressure))
	memPressure := 0.0
	if m.MemPressure {
		memPressure = 1
	}
	pw.Gauge("netalignd_memory_pressure", "1 while submissions are shed for memory pressure.", memPressure)
	pw.Gauge("netalignd_retry_after_seconds", "Current Retry-After hint attached to shed submissions.", float64(m.RetryAfterSec))
	if len(m.Tenants) > 0 {
		names := SortedKeys(m.Tenants)
		pw.Labeled("netalignd_tenant_weight", "Configured fair-share weight.", "gauge", "tenant", names, func(t string) any { return float64(m.Tenants[t].Weight) })
		pw.Labeled("netalignd_tenant_queue_depth", "Jobs waiting in the tenant's queues.", "gauge", "tenant", names, func(t string) any { return float64(m.Tenants[t].Queued) })
		pw.Labeled("netalignd_tenant_queue_depth_interactive", "Interactive jobs waiting in the tenant's queue.", "gauge", "tenant", names, func(t string) any { return float64(m.Tenants[t].QueuedInteractive) })
		pw.Labeled("netalignd_tenant_jobs_running", "Tenant jobs currently solving.", "gauge", "tenant", names, func(t string) any { return float64(m.Tenants[t].Running) })
		pw.Labeled("netalignd_tenant_jobs_submitted_total", "Jobs accepted for the tenant.", "counter", "tenant", names, func(t string) any { return m.Tenants[t].Submitted })
		pw.Labeled("netalignd_tenant_jobs_completed_total", "Tenant jobs finished done.", "counter", "tenant", names, func(t string) any { return m.Tenants[t].Completed })
		pw.Labeled("netalignd_tenant_jobs_preempted_total", "Tenant batch runs checkpoint-preempted.", "counter", "tenant", names, func(t string) any { return m.Tenants[t].Preempted })
		pw.Labeled("netalignd_tenant_jobs_shed_total", "Tenant submissions refused by quota or memory pressure.", "counter", "tenant", names, func(t string) any { return m.Tenants[t].Shed })
		pw.Labeled("netalignd_tenant_queue_wait_seconds_total", "Cumulative queue wait charged to dispatched tenant jobs.", "gauge", "tenant", names, func(t string) any { return m.Tenants[t].WaitSeconds })
	}
	if m.PeerFillEnabled {
		pw.Counter("netalignd_peer_fill_total", "Submissions admitted from a peer's cache instead of solving.", m.PeerFills)
		pw.Counter("netalignd_peer_fill_probes_total", "Cache probes sent to ring neighbors.", m.PeerFill.Probes)
		pw.Counter("netalignd_peer_fill_rejects_total", "Peer payloads rejected by hash validation.", m.PeerFill.Rejects)
		pw.Counter("netalignd_peer_fill_misses_total", "Peer probes that found no entry anywhere.", m.PeerFill.Misses)
		pw.Counter("netalignd_peer_fill_skipped_total", "Peer probes skipped because the peer was marked down.", m.PeerFill.Skips)
	}
	if m.CacheEnabled {
		pw.Counter("netalignd_cache_hits_total", "Result-cache hits (memory or disk).", m.CacheHits)
		pw.Counter("netalignd_cache_disk_hits_total", "Result-cache hits served from the disk tier.", m.CacheDiskHits)
		pw.Counter("netalignd_cache_misses_total", "Result-cache misses.", m.CacheMisses)
		pw.Counter("netalignd_cache_evictions_total", "Result-cache entries evicted by the byte bound.", m.CacheEvicted)
		pw.Counter("netalignd_cache_corrupt_total", "Corrupt disk-tier entries detected and removed.", m.CacheCorrupt)
		pw.Gauge("netalignd_cache_bytes", "Serialized result bytes held in memory.", float64(m.CacheBytes))
		pw.Gauge("netalignd_cache_entries", "Results held in the memory tier.", float64(m.CacheEntries))
	}
	pw.Labeled("netalignd_solve_step_seconds", "Cumulative solver time per pipeline stage.", "counter", "step", SortedKeys(m.StepSeconds), func(step string) any { return m.StepSeconds[step] })
	// Parallel-region scheduler health: pool utilization and how often
	// regions fell off the zero-allocation pool path.
	sched := parallel.Stats()
	pw.Gauge("netalignd_sched_pool_workers", "Parked parallel-pool workers alive.", float64(sched.PoolWorkers))
	pw.Gauge("netalignd_sched_workers_busy", "Pool workers executing a region right now.", float64(sched.WorkersBusy))
	pw.Counter("netalignd_sched_pool_regions_total", "Parallel regions dispatched on a worker pool.", sched.PoolRegions)
	pw.Counter("netalignd_sched_spawn_regions_total", "Parallel regions that fell back to goroutine spawning.", sched.SpawnRegions)
	pw.Counter("netalignd_sched_shared_busy_fallbacks_total", "Free-function regions that found the shared pool occupied.", sched.SharedBusyFallbacks)
}

// PublishExpvars registers the manager snapshot under the "netalignd"
// expvar. Call at most once per process (expvar panics on duplicate
// names), so this lives outside NewServer — tests build many servers.
func (s *Server) PublishExpvars() {
	expvar.Publish("netalignd", expvar.Func(func() any {
		return s.mgr.Snapshot()
	}))
	expvar.Publish("netalignd_sched", expvar.Func(func() any {
		return parallel.Stats()
	}))
}
