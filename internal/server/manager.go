package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/core"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
	"netalignmc/internal/stats"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("server: job not found")
	// ErrQueueFull: the scheduler's global depth limit is reached (429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrTenantQuota: the submitting tenant is at its per-tenant queued
	// admission quota (429 with a tenant-scoped Retry-After). Other
	// tenants are unaffected.
	ErrTenantQuota = errors.New("server: tenant admission quota exceeded")
	// ErrDraining: the server is shutting down and accepts no new
	// work (503).
	ErrDraining = errors.New("server: draining")
	// ErrBadSpec wraps job-spec validation and problem-parse failures
	// (400).
	ErrBadSpec = errors.New("server: bad job spec")
	// ErrOverloaded: the process is over its memory budget and is
	// shedding new submissions (429 with a drain-rate Retry-After).
	ErrOverloaded = errors.New("server: overloaded, shedding load")
	// ErrDiskPressure: the spool volume is below its free-space floor;
	// admitting a job would write durable state to a full disk (503).
	ErrDiskPressure = errors.New("server: spool disk under pressure")
	// ErrNotQuarantined: requeue asked for a job that is not in the
	// quarantined state (409).
	ErrNotQuarantined = errors.New("server: job is not quarantined")
	// ErrAlreadyHandedOff: a handoff offered a job id this node holds
	// only as a handed_off tombstone — it gave the job away in an
	// earlier drain and does not own it. Accepting would let the
	// current sender tombstone its live copy too, leaving the job
	// terminal everywhere and never run; the sender must try the next
	// ring successor instead (409).
	ErrAlreadyHandedOff = errors.New("server: job already handed off")
)

// Config parameterizes a Manager.
type Config struct {
	// Spool is the durable job directory.
	Spool string
	// Workers is the number of concurrent solves (default 2).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with ErrQueueFull
	// (default 16).
	QueueDepth int
	// CheckpointEvery is the default checkpoint interval in
	// iterations (default 10); Spec.CheckpointEvery overrides per job.
	CheckpointEvery int
	// Threads is the default per-solve thread count when a spec does
	// not set one (default GOMAXPROCS/Workers, at least 1).
	Threads int
	// CacheBytes bounds the in-memory result cache (serialized
	// result.json bytes). Zero or negative disables the cache and
	// request coalescing entirely, which is the library default; the
	// netalignd binary turns it on.
	CacheBytes int64
	// CacheDir, when non-empty and the cache is enabled, adds a disk
	// tier under that directory which survives restarts (entries are
	// hash-validated on load).
	CacheDir string
	// PeerFiller, when set (and the cache is enabled), is consulted on
	// a result-cache miss before a submission enqueues: it may fetch
	// the serialized result from a cluster peer's cache, in which case
	// the submission is admitted already-done without solving and the
	// payload enters the local cache. Implementations must hash-
	// validate fetched payloads; the Manager trusts what it returns.
	// Called outside the manager lock — it is expected to do network
	// I/O.
	PeerFiller PeerFiller
	// Handoff, when set, makes drain proactive: Shutdown exports every
	// job still queued after the workers stop — canonical problem
	// bytes, spec, retry budget, latest checkpoint — and offers each
	// to its ring successor (see internal/cluster's HTTP
	// implementation). A job the sender accepts is finalized
	// handed_off locally (a tombstone recovery never re-runs); one no
	// peer accepts stays queued in the spool and is recovered on the
	// next startup, exactly as without a sender. Works independently
	// of PeerFiller and the result cache.
	Handoff HandoffSender

	// RetryBudget is how many times a transiently failed attempt
	// (solver error, injected I/O fault, worker panic, stall) is
	// re-enqueued before the job is quarantined. The count persists in
	// the spool, so attempts survive restarts. Zero means the default
	// (3); negative disables retries entirely, restoring the old
	// fail-fast behavior (failures finalize as failed, never
	// quarantined).
	RetryBudget int
	// RetryBaseDelay / RetryMaxDelay bound the exponential backoff
	// between attempts (defaults 500ms / 30s). Jitter is deterministic
	// per (job, attempt) — see RetryDelay.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// StallTimeout, when positive, arms a per-run watchdog: a running
	// job whose iteration counter stops advancing for longer than this
	// (scaled up for large problems — see stallTimeoutFor) is cancelled
	// and the attempt counts against the retry budget. Zero disables.
	StallTimeout time.Duration
	// StallCheckEvery is the watchdog poll interval (default 1s).
	StallCheckEvery time.Duration
	// CrashLoopLimit quarantines a job found mid-running across this
	// many consecutive daemon restarts (a poison job that kills its
	// worker — or the whole process — before it can fail cleanly).
	// Zero means the default (3); negative disables the detector.
	CrashLoopLimit int

	// MinDiskBytes, when positive, is the spool volume's free-space
	// floor. Below 2× the floor the server degrades (cache disk tier
	// off, checkpoint cadence stretched); below the floor new
	// submissions are refused with ErrDiskPressure.
	MinDiskBytes int64
	// MaxRSSBytes, when positive, sheds new submissions with
	// ErrOverloaded (429 + Retry-After from the queue drain rate) while
	// the process RSS exceeds it.
	MaxRSSBytes int64
	// PressureEvery is the pressure sampling interval (default 2s).
	PressureEvery time.Duration
	// DiskFreeProbe / RSSProbe override the platform probes in tests.
	DiskFreeProbe func(path string) (int64, error)
	RSSProbe      func() (int64, error)

	// TenantWeights maps tenant names to fair-share weights for the
	// stride scheduler; unlisted tenants (including "default") weigh 1.
	// With two saturated tenants weighted 3:1 the workers dispatch
	// their jobs in a 3:1 ratio.
	TenantWeights map[string]int64
	// TenantQuota, when positive, caps one tenant's queued (not yet
	// running) jobs; submissions beyond it are refused with
	// ErrTenantQuota. Zero disables per-tenant quotas.
	TenantQuota int
	// Preempt enables checkpoint-preemption: when an interactive job
	// arrives and every worker slot is held by a batch job, the
	// youngest-started batch job is checkpointed and parked back at the
	// head of its tenant queue, to resume bit-identically later.
	Preempt bool
}

// PeerFiller fetches a missing result-cache entry from cluster peers
// (see internal/cluster for the HTTP implementation probing ring
// neighbors' GET /v1/cache/{key}). Fill returns the validated result
// bytes for the key, or ok=false when no peer had them; Stats
// snapshots the probe counters for the node's /metrics.
type PeerFiller interface {
	Fill(key cache.Key) (data []byte, ok bool)
	Stats() PeerFillStats
}

// PeerFillStats counts one node's peer-fill activity: cache probes
// sent to peers, entries successfully fetched and validated, payloads
// rejected by hash validation, probes that found nothing, and probes
// skipped because the peer was already marked down (a dead peer must
// not stall admission waiting out its timeout).
type PeerFillStats struct {
	Probes  int64 `json:"probes"`
	Fills   int64 `json:"fills"`
	Rejects int64 `json:"rejects"`
	Misses  int64 `json:"misses"`
	Skips   int64 `json:"skips"`
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0) / c.Workers
		if c.Threads < 1 {
			c.Threads = 1
		}
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 500 * time.Millisecond
	}
	if c.RetryMaxDelay < c.RetryBaseDelay {
		c.RetryMaxDelay = 30 * time.Second
		if c.RetryMaxDelay < c.RetryBaseDelay {
			c.RetryMaxDelay = c.RetryBaseDelay
		}
	}
	if c.StallCheckEvery <= 0 {
		c.StallCheckEvery = time.Second
	}
	if c.CrashLoopLimit == 0 {
		c.CrashLoopLimit = 3
	}
	if c.PressureEvery <= 0 {
		c.PressureEvery = 2 * time.Second
	}
	return c
}

// retryBudget resolves the configured budget: >=0 retries allowed,
// -1 retries disabled.
func (c Config) retryBudget() int {
	if c.RetryBudget < 0 {
		return -1
	}
	return c.RetryBudget
}

// Job is one managed alignment run. All lifecycle fields are guarded
// by mu; iter is atomic so the progress observer can update it from
// the solver goroutine without contending with status reads.
type Job struct {
	ID   string
	Spec Spec

	mu              sync.Mutex
	state           State
	errMsg          string
	created         time.Time
	started         time.Time
	finished        time.Time
	resumes         int
	cancelRequested bool
	cancel          context.CancelFunc
	// attempts counts failed attempts charged against the retry
	// budget; persisted so budgets survive restarts. crashRuns counts
	// consecutive daemon incarnations that found this job mid-running
	// (the crash-loop detector); incarnation records which daemon
	// incarnation last started the job. stalled marks a run cancelled
	// by the watchdog; retryTimer is the pending backoff timer while a
	// retry waits to re-enqueue.
	attempts    int
	crashRuns   int
	incarnation int64
	stalled     bool
	retryTimer  *time.Timer
	// preempt marks a run cancelled to yield its worker slot to an
	// interactive job; preemptions counts how many times that happened
	// (persisted). enqueuedAt is the last scheduler-queue entry time,
	// owned by schedQueue under m.mu.
	preempt     bool
	preemptions int
	enqueuedAt  time.Time
	// handedTo is the base URL of the ring successor that accepted this
	// job during a proactive drain (set with state = StateHandedOff).
	handedTo string

	iter atomic.Int64
	// beat increments on every solver iteration (unthrottled, unlike
	// iter which follows ProgressEvery); the stall watchdog watches it.
	beat atomic.Int64
	// events holds the job's SSE broker. It is an atomic pointer
	// because Requeue replaces a quarantined job's closed broker with a
	// fresh one while readers may be subscribing concurrently.
	events atomic.Pointer[broker]

	// Result-cache linkage. cacheKey/hasKey are set once at submit (or
	// recovery) and never change. primary and followers implement
	// single-flight coalescing: a follower is a job whose identical
	// submission attached to an already-inflight primary instead of
	// running; the primary fans its progress and final result out to
	// its followers. Both fields are mutated only under m.mu plus the
	// owning job's mu, and read under the owning job's mu alone.
	cacheKey  cache.Key
	hasKey    bool
	primary   *Job
	followers []*Job
}

// metaLocked snapshots the durable record; callers hold j.mu.
func (j *Job) metaLocked() *Meta {
	return &Meta{
		ID: j.ID, Spec: j.Spec, State: j.state, Error: j.errMsg,
		Created: j.created, Started: j.started, Finished: j.finished,
		Resumes: j.resumes, Attempts: j.attempts, CrashRuns: j.crashRuns,
		Incarnation: j.incarnation, Preemptions: j.preemptions,
		HandedOffTo: j.handedTo,
	}
}

// eventsBroker returns the job's current SSE broker.
func (j *Job) eventsBroker() *broker { return j.events.Load() }

// publish forwards an event to the job's current broker.
func (j *Job) publish(event string, v any) { j.events.Load().publish(event, v) }

// closeEvents ends the job's current event stream.
func (j *Job) closeEvents() { j.events.Load().close() }

// JobStatus is the API view of a job.
type JobStatus struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Method string `json:"method"`
	// Tenant and Class echo the effective scheduling identity (the
	// defaults applied — "default"/"batch" for untagged submissions).
	Tenant   string    `json:"tenant"`
	Class    string    `json:"class"`
	Iter     int       `json:"iter"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Resumes  int       `json:"resumes,omitempty"`
	// Attempts is how many failed attempts have been charged against
	// the job's retry budget so far.
	Attempts int `json:"attempts,omitempty"`
	// Preemptions is how many times the job was checkpoint-preempted
	// to yield its worker slot to interactive traffic.
	Preemptions int `json:"preemptions,omitempty"`
	// HandedOffTo names the node that accepted this job during a
	// proactive drain (state handed_off only); the job continues there
	// under the same id.
	HandedOffTo string `json:"handedOffTo,omitempty"`
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobStatus{
		ID: j.ID, State: j.state, Method: j.Spec.methodName(),
		Tenant: j.Spec.tenantName(), Class: j.Spec.className(),
		Iter: int(j.iter.Load()), Error: j.errMsg,
		Created: j.created, Started: j.started, Finished: j.finished,
		Resumes: j.resumes, Attempts: j.attempts, Preemptions: j.preemptions,
		HandedOffTo: j.handedTo,
	}
}

// Counters are the monotonically increasing job metrics.
type Counters struct {
	Submitted, Resumed, Rejected           atomic.Int64
	Completed, Failed, Cancelled, Numerics atomic.Int64
	Interrupted/* requeued by drain or crash */ atomic.Int64
	Coalesced/* submissions attached to an inflight identical job */ atomic.Int64
	Retried/* failed attempts re-enqueued with backoff */ atomic.Int64
	Quarantined/* jobs that exhausted their budget or crash-looped */ atomic.Int64
	Requeued/* quarantined jobs put back by the requeue endpoint */ atomic.Int64
	Stalled/* runs cancelled by the stall watchdog */ atomic.Int64
	ShedMemory/* submissions refused under memory pressure */ atomic.Int64
	RefusedDisk/* submissions refused under disk pressure */ atomic.Int64
	PeerFills/* submissions admitted from a peer's cache instead of solving */ atomic.Int64
	Preempted/* batch runs checkpoint-preempted for interactive jobs */ atomic.Int64
	ShedQuota/* submissions refused by a per-tenant admission quota */ atomic.Int64
	Expired/* jobs failed because their queue deadline passed before dispatch */ atomic.Int64
	HandoffSent/* queued jobs exported to a ring successor during drain */ atomic.Int64
	HandoffReceived/* drained jobs admitted from a peer's handoff */ atomic.Int64
	HandoffFailed/* drain exports no peer accepted (job stays queued in the spool) */ atomic.Int64
	CheckpointsDiscarded/* unreadable or mismatched checkpoints dropped for a rerun from scratch */ atomic.Int64
}

// Manager owns the job lifecycle: a tenant-aware scheduler (weighted
// fair queuing over two priority classes, with a global depth limit
// and per-tenant quotas) feeding a fixed pool of worker goroutines,
// durable state in a Store, and drain/recovery across restarts.
type Manager struct {
	cfg   Config
	store *Store
	timer *stats.StepTimer
	start time.Time
	// cache is the content-addressed result cache (nil when disabled).
	// Keys hash the canonicalized problem bytes plus the spec's
	// output-affecting option fingerprint, so a hit is guaranteed to be
	// the bit-identical result the solve would have produced.
	cache *cache.Cache
	// incarnation is this daemon start's spool incarnation number (see
	// Store.BumpIncarnation); pressure monitors resource headroom and
	// drives degraded mode (nil checks are avoided by always
	// constructing it — it just stays idle when unconfigured).
	incarnation int64
	pressure    *pressureMonitor

	draining atomic.Bool

	mu    sync.Mutex
	cond  *sync.Cond
	sched *schedQueue
	// idle counts workers parked in cond.Wait: the preemption trigger —
	// an interactive arrival preempts only when no worker is free.
	idle int
	jobs map[string]*Job
	// inflight is the single-flight table: at most one queued/running
	// job per cache key; identical submissions attach to it as
	// followers instead of solving again.
	inflight map[cache.Key]*Job
	closed   bool
	wg       sync.WaitGroup

	counters Counters

	// betweenPopAndRun, when non-nil, runs in a worker after it pops a
	// job and releases m.mu but before run marks the job running. It
	// is nil in production; tests use it to hold a job in that window.
	betweenPopAndRun func(*Job)
}

// NewManager opens the spool, recovers interrupted jobs (any job
// recorded queued or running is requeued; a checkpoint, if present,
// makes the rerun resume bit-identically), and starts the worker
// pool.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	store, err := NewStore(cfg.Spool)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		store:    store,
		timer:    stats.NewStepTimer(),
		start:    time.Now(),
		sched:    newSchedQueue(cfg.TenantWeights),
		jobs:     make(map[string]*Job),
		inflight: make(map[cache.Key]*Job),
	}
	if cfg.CacheBytes > 0 {
		c, err := cache.New(cfg.CacheBytes, cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: result cache: %w", err)
		}
		m.cache = c
	}
	m.cond = sync.NewCond(&m.mu)
	// Bump the incarnation counter before recovery scans the spool:
	// recovery compares each mid-running job's recorded incarnation
	// against the previous one to detect crash loops.
	if m.incarnation, err = store.BumpIncarnation(); err != nil {
		return nil, err
	}
	m.pressure = newPressureMonitor(cfg)
	if err := m.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.pressure.enabled() {
		go m.pressure.run(m)
	}
	return m, nil
}

// Store exposes the spool (read-only use by the HTTP layer and
// tests).
func (m *Manager) Store() *Store { return m.store }

// recover rescans the spool and requeues every non-terminal job.
func (m *Manager) recover() error {
	ids, err := m.store.ListJobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		meta, err := m.store.LoadMeta(id)
		if err != nil {
			// An unreadable record (e.g. crash before the first
			// job.json rename) is skipped, not fatal: the rest of the
			// spool must still come back.
			continue
		}
		j := &Job{
			ID: meta.ID, Spec: meta.Spec, state: meta.State,
			errMsg: meta.Error, created: meta.Created,
			started: meta.Started, finished: meta.Finished,
			resumes: meta.Resumes, attempts: meta.Attempts,
			crashRuns: meta.CrashRuns, incarnation: meta.Incarnation,
			preemptions: meta.Preemptions, handedTo: meta.HandedOffTo,
		}
		j.events.Store(newBroker())
		if meta.State.Terminal() {
			j.closeEvents()
			m.jobs[j.ID] = j
			continue
		}
		// Interrupted: requeue. A job caught mid-run resumes from its
		// last checkpoint (or from scratch when none was written yet);
		// either way the rerun is bit-identical to an uninterrupted
		// run.
		if meta.State == StateRunning {
			// Crash-loop detection: a job found mid-running whose
			// recorded incarnation is the one immediately before this
			// start has taken the daemon down (or been caught by its
			// crash) every restart in a row. After CrashLoopLimit
			// consecutive such restarts it is quarantined instead of
			// requeued — a poison job must not crash-loop the daemon
			// forever. A gap in incarnations (clean restarts in between)
			// resets the streak.
			if meta.Incarnation == m.incarnation-1 && meta.Incarnation > 0 {
				j.crashRuns = meta.CrashRuns + 1
			} else {
				j.crashRuns = 1
			}
			if lim := m.cfg.CrashLoopLimit; lim > 0 && j.crashRuns >= lim {
				j.state = StateQuarantined
				j.errMsg = fmt.Sprintf(
					"crash loop: found mid-running at %d consecutive daemon restarts (limit %d)",
					j.crashRuns, lim)
				j.finished = time.Now()
				if err := m.store.SaveMeta(j.metaLocked()); err != nil {
					return err
				}
				j.closeEvents()
				m.counters.Quarantined.Add(1)
				m.jobs[j.ID] = j
				continue
			}
			j.resumes++
			m.counters.Interrupted.Add(1)
		}
		j.state = StateQueued
		j.started, j.finished = time.Time{}, time.Time{}
		if err := m.store.SaveMeta(j.metaLocked()); err != nil {
			return err
		}
		// Re-key recovered jobs so their eventual results land in the
		// cache and later identical submissions coalesce onto them. The
		// canonical problem bytes are already in the spool. When several
		// recovered jobs share a key, the first claims the single-flight
		// slot and the rest just run (their finishes skip the foreign
		// inflight entry).
		if m.cache != nil {
			if fp, ok := j.Spec.cacheFingerprint(); ok {
				if pb, err := m.store.LoadProblemBytes(j.ID); err == nil {
					j.cacheKey = cache.KeyFor(pb, fp)
					j.hasKey = true
					if _, taken := m.inflight[j.cacheKey]; !taken {
						m.inflight[j.cacheKey] = j
					}
				}
			}
		}
		m.jobs[j.ID] = j
		// The tenant and class ride in the persisted Spec, so a restart
		// re-files the job under its original tenant queue and class —
		// and re-credits the tenant's admission counter, which is
		// per-process like every other lifetime counter.
		m.sched.push(j, false)
		m.sched.tenant(j.Spec.tenantName()).submitted++
		m.counters.Resumed.Add(1)
	}
	return nil
}

// Submit validates the spec, canonicalizes its problem into the spool
// (Spec.canonicalProblem, the function the router's CacheKey runs; S
// is not built until a worker loads problem.txt), and enqueues the
// job. With the result cache enabled, a submission whose (problem,
// options) key hits the cache returns an already-completed job
// without solving, and one identical to a queued/running job
// coalesces onto it as a follower (one execution, two job ids,
// byte-identical results). Submit fails with ErrQueueFull when the
// queue is at its depth limit and ErrDraining during shutdown; cache
// hits and coalesced joins consume no queue slot and are admitted
// even at the depth limit.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	threads := spec.Threads
	if threads == 0 {
		threads = m.cfg.Threads
	}
	// The spool write and the cache key use the same canonical bytes,
	// so they can never disagree.
	pb, err := spec.canonicalProblem(threads)
	if err != nil {
		return nil, err
	}
	if m.draining.Load() {
		return nil, ErrDraining
	}
	// Pressure gates come before any spool write: a submission refused
	// for resource headroom must leave no trace on the (possibly full)
	// disk.
	if m.pressure.memShedding() {
		m.counters.ShedMemory.Add(1)
		m.noteTenantShed(spec.tenantName())
		return nil, ErrOverloaded
	}
	if m.pressure.diskRefusing() {
		m.counters.RefusedDisk.Add(1)
		return nil, ErrDiskPressure
	}
	var key cache.Key
	cacheable := false
	if m.cache != nil && spec.TimeoutSec == 0 {
		// Timed jobs are excluded: a deadline makes the outcome
		// wall-clock-dependent, and coalescing one onto an unbounded
		// primary would void its deadline.
		if fp, ok := spec.cacheFingerprint(); ok {
			key = cache.KeyFor(pb, fp)
			cacheable = true
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if cacheable {
		if data, ok := m.cache.Get(key); ok {
			j, err := m.admitCachedLocked(spec, pb, data)
			m.mu.Unlock()
			return j, err
		}
		if prim, ok := m.inflight[key]; ok {
			j, err := m.attachFollowerLocked(spec, pb, key, prim)
			m.mu.Unlock()
			return j, err
		}
		if m.cfg.PeerFiller != nil {
			// Local miss: ask ring neighbors for the entry before
			// burning a worker slot on a recompute. The probe does
			// network I/O, so the manager lock is dropped around it and
			// both lookups re-run after: an identical submission (or
			// this key's own finish) may have landed meanwhile.
			m.mu.Unlock()
			data, filled := m.cfg.PeerFiller.Fill(key)
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				return nil, ErrDraining
			}
			if local, ok := m.cache.Peek(key); ok {
				j, err := m.admitCachedLocked(spec, pb, local)
				m.mu.Unlock()
				return j, err
			}
			if prim, ok := m.inflight[key]; ok {
				j, err := m.attachFollowerLocked(spec, pb, key, prim)
				m.mu.Unlock()
				return j, err
			}
			if filled {
				m.cache.Put(key, data)
				m.counters.PeerFills.Add(1)
				j, err := m.admitCachedLocked(spec, pb, data)
				m.mu.Unlock()
				return j, err
			}
		}
	}
	tenant := spec.tenantName()
	// The per-tenant quota is checked before the global depth limit so
	// a flooding tenant sees its own scoped 429 (ErrTenantQuota, with a
	// Retry-After computed from its own backlog) rather than consuming
	// the shared budget and pushing everyone else into ErrQueueFull.
	if q := m.cfg.TenantQuota; q > 0 && m.sched.depth(tenant) >= q {
		m.sched.tenant(tenant).shed++
		m.mu.Unlock()
		m.counters.ShedQuota.Add(1)
		m.counters.Rejected.Add(1)
		return nil, fmt.Errorf("%w: tenant %q has %d jobs queued (quota %d)",
			ErrTenantQuota, tenant, q, q)
	}
	if m.sched.size >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.counters.Rejected.Add(1)
		return nil, ErrQueueFull
	}
	id, err := newJobID()
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	j := &Job{
		ID: id, Spec: spec, state: StateQueued,
		created:  time.Now(),
		cacheKey: key, hasKey: cacheable,
	}
	j.events.Store(newBroker())
	// Persist before enqueueing so a crash in between recovers the
	// job instead of losing it.
	if err := m.store.CreateJob(id); err == nil {
		err = m.store.SaveProblemBytes(id, pb)
	}
	if err == nil {
		err = m.store.SaveMeta(j.metaLocked())
	}
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if cacheable {
		m.inflight[key] = j
	}
	m.jobs[id] = j
	m.sched.push(j, false)
	m.sched.tenant(tenant).submitted++
	m.counters.Submitted.Add(1)
	preempt := m.maybePreemptLocked(j)
	m.cond.Signal()
	m.mu.Unlock()
	if preempt != nil {
		preempt()
	}
	return j, nil
}

// noteTenantShed attributes a pressure shed to the submitting tenant.
func (m *Manager) noteTenantShed(tenant string) {
	m.mu.Lock()
	m.sched.tenant(tenant).shed++
	m.mu.Unlock()
}

// maybePreemptLocked decides whether admitting j warrants preempting a
// running batch job: j is interactive, preemption is enabled, no
// worker is idle, and at least one batch job holds a slot. The victim
// is the youngest-started batch run — it has the least sunk work past
// its last checkpoint. The victim's context cancel is returned to be
// invoked after m.mu is released; the cancelled run observes the
// preempt mark and parks back at the head of its tenant queue (see
// run), to resume later from its checkpoint bit-identically. Called
// with m.mu held.
func (m *Manager) maybePreemptLocked(j *Job) context.CancelFunc {
	if !m.cfg.Preempt || j.Spec.className() != ClassInteractive || m.idle > 0 {
		return nil
	}
	var victim *Job
	var victimStart time.Time
	var cancel context.CancelFunc
	for _, cand := range m.jobs {
		if cand.Spec.className() != ClassBatch {
			continue
		}
		cand.mu.Lock()
		ok := cand.state == StateRunning && !cand.preempt &&
			!cand.cancelRequested && cand.cancel != nil
		started := cand.started
		cand.mu.Unlock()
		if ok && (victim == nil || started.After(victimStart)) {
			victim = cand
			victimStart = started
		}
	}
	if victim == nil {
		return nil
	}
	victim.mu.Lock()
	// Re-check under the victim's lock: it may have finished or been
	// cancelled between the scan and now.
	if victim.state != StateRunning || victim.preempt ||
		victim.cancelRequested || victim.cancel == nil {
		victim.mu.Unlock()
		return nil
	}
	victim.preempt = true
	cancel = victim.cancel
	victim.mu.Unlock()
	return cancel
}

// admitCachedLocked creates an already-completed job from a cached
// result: the spool record is fully persisted (problem, result, done
// meta), so the job is indistinguishable from one that ran — except
// its iteration counter stays at zero and no solver work happens.
// Called with m.mu held.
func (m *Manager) admitCachedLocked(spec Spec, problem, result []byte) (*Job, error) {
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	j := &Job{
		ID: id, Spec: spec, state: StateDone,
		created: now, finished: now,
	}
	j.events.Store(newBroker())
	if err := m.store.CreateJob(id); err == nil {
		err = m.store.SaveProblemBytes(id, problem)
	}
	if err == nil {
		err = m.store.SaveResultBytes(id, result)
	}
	if err == nil {
		err = m.store.SaveMeta(j.metaLocked())
	}
	if err != nil {
		return nil, err
	}
	j.closeEvents()
	m.jobs[id] = j
	m.counters.Submitted.Add(1)
	m.counters.Completed.Add(1)
	ts := m.sched.tenant(spec.tenantName())
	ts.submitted++
	ts.completed++
	return j, nil
}

// attachFollowerLocked coalesces a submission onto the inflight
// primary solving the same key. The follower gets its own id and spool
// record but never enters the queue; it mirrors the primary's state
// and receives its progress events and final result bytes. Called with
// m.mu held.
func (m *Manager) attachFollowerLocked(spec Spec, problem []byte, key cache.Key, prim *Job) (*Job, error) {
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID: id, Spec: spec, created: time.Now(),
		cacheKey: key, hasKey: true,
	}
	j.events.Store(newBroker())
	prim.mu.Lock()
	j.state = StateQueued
	if prim.state == StateRunning {
		j.state = StateRunning
		j.started = prim.started
		j.iter.Store(prim.iter.Load())
	}
	j.primary = prim
	prim.followers = append(prim.followers, j)
	prim.mu.Unlock()
	if err := m.store.CreateJob(id); err == nil {
		err = m.store.SaveProblemBytes(id, problem)
	}
	if err == nil {
		err = m.store.SaveMeta(j.metaLocked())
	}
	if err != nil {
		prim.mu.Lock()
		for i, f := range prim.followers {
			if f == j {
				prim.followers = append(prim.followers[:i], prim.followers[i+1:]...)
				break
			}
		}
		prim.mu.Unlock()
		return nil, err
	}
	m.jobs[id] = j
	m.counters.Submitted.Add(1)
	m.counters.Coalesced.Add(1)
	m.sched.tenant(spec.tenantName()).submitted++
	return j, nil
}

// Get looks a job up.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job's status, newest first.
func (m *Manager) List() []*JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]*JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	for i := 0; i < len(out); i++ {
		for k := i + 1; k < len(out); k++ {
			if out[k].Created.After(out[i].Created) {
				out[i], out[k] = out[k], out[i]
			}
		}
	}
	return out
}

// Cancel requests cooperative cancellation. A queued job is finalized
// immediately; a running job's context is cancelled and the solver
// stops in bounded time, reporting its best partial matching. A
// coalesced follower detaches and finalizes cancelled while its
// primary keeps solving for the remaining subscribers; cancelling a
// primary with followers promotes them to run for themselves. Cancel
// is idempotent: terminal jobs report their state unchanged.
func (m *Manager) Cancel(id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	j.mu.Lock()
	if prim := j.primary; prim != nil && !j.state.Terminal() {
		// Coalesced follower: detach, finalize cancelled. The primary's
		// solve is untouched — other jobs still depend on it.
		j.primary = nil
		j.cancelRequested = true
		m.counters.Cancelled.Add(1) // counted before the state is visible
		j.state = StateCancelled
		j.finished = time.Now()
		meta := j.metaLocked()
		j.mu.Unlock()
		prim.mu.Lock()
		for i, f := range prim.followers {
			if f == j {
				prim.followers = append(prim.followers[:i], prim.followers[i+1:]...)
				break
			}
		}
		prim.mu.Unlock()
		m.mu.Unlock()
		_ = m.store.SaveMeta(meta)
		j.publish("state", j.Status())
		j.closeEvents()
		return j.Status(), nil
	}
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		m.mu.Unlock()
		return j.Status(), nil
	case j.state == StateQueued:
		j.cancelRequested = true
		inQueue := m.sched.remove(j)
		if t := j.retryTimer; t != nil {
			// Waiting out a retry backoff: stop the timer and finalize
			// here. (If the timer already fired, enqueueRetry sees
			// cancelRequested — or the terminal state — and backs off.)
			t.Stop()
			j.retryTimer = nil
			inQueue = true
		}
		if !inQueue {
			// A worker already popped it and is about to run; the
			// run loop will observe cancelRequested and finalize.
			j.mu.Unlock()
			m.mu.Unlock()
			return j.Status(), nil
		}
		var followers []*Job
		if j.hasKey {
			if m.inflight[j.cacheKey] == j {
				delete(m.inflight, j.cacheKey)
			}
			followers = j.followers
			j.followers = nil
		}
		m.counters.Cancelled.Add(1) // counted before the state is visible
		j.state = StateCancelled
		j.finished = time.Now()
		meta := j.metaLocked()
		j.mu.Unlock()
		m.mu.Unlock()
		_ = m.store.SaveMeta(meta)
		j.publish("state", j.Status())
		j.closeEvents()
		m.promoteFollowers(followers)
		return j.Status(), nil
	default: // running
		j.cancelRequested = true
		cancel := j.cancel
		j.mu.Unlock()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return j.Status(), nil
	}
}

// Result returns the raw result.json bytes of a finished job.
func (m *Manager) Result(id string) ([]byte, error) {
	return m.store.LoadResult(id)
}

// OpenResult opens a finished job's result.json for streaming.
func (m *Manager) OpenResult(id string) (io.ReadCloser, int64, error) {
	return m.store.OpenResult(id)
}

// worker pops jobs until shutdown. Dispatch order is the scheduler's:
// interactive before batch, weighted-fair across tenants within a
// class.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		m.idle++
		for m.sched.size == 0 && !m.closed {
			m.cond.Wait()
		}
		m.idle--
		if m.closed {
			m.mu.Unlock()
			return
		}
		now := time.Now()
		j := m.sched.pop(now)
		m.mu.Unlock()
		if j == nil {
			continue
		}
		if h := m.betweenPopAndRun; h != nil {
			h(j)
		}
		if expired, waited := j.queueDeadlineExpired(now); expired {
			// The job's queue-wait deadline passed before a worker was
			// free: fail it instead of burning a slot on a result the
			// caller has already given up on.
			m.counters.Expired.Add(1)
			m.finish(j, StateFailed, nil, fmt.Sprintf(
				"queue deadline exceeded: waited %s, deadlineMs %d",
				waited.Round(time.Millisecond), j.Spec.DeadlineMS))
			continue
		}
		m.run(j)
	}
}

// queueDeadlineExpired reports whether the job's DeadlineMS elapsed
// between admission and dispatch, and how long it actually waited.
func (j *Job) queueDeadlineExpired(now time.Time) (bool, time.Duration) {
	if j.Spec.DeadlineMS <= 0 {
		return false, 0
	}
	j.mu.Lock()
	created := j.created
	j.mu.Unlock()
	waited := now.Sub(created)
	return waited > time.Duration(j.Spec.DeadlineMS)*time.Millisecond, waited
}

// finish moves a job to a terminal state, persisting the result (when
// one exists) before the state becomes visible, then ends the event
// stream. For a single-flight primary the cache insert, the inflight
// unlink and the follower snapshot share one m.mu section (so no new
// follower can attach to a decided job, and a concurrent identical
// submission either coalesces or hits the cache — never re-runs);
// it then fans out: a shareable result (a deterministic run that
// stopped on max-iterations or convergence) completes every follower
// with the same bytes; any other outcome promotes the followers to
// run for themselves.
func (m *Manager) finish(j *Job, state State, result *core.ResultJSON, errMsg string) {
	// Persist the result before the terminal state becomes visible: a
	// client that polls the job to done and immediately fetches the
	// result must find result.json on disk.
	var data []byte
	if result != nil {
		var err error
		if data, err = json.Marshal(result); err == nil {
			err = m.store.SaveResultBytes(j.ID, data)
		}
		if err != nil && errMsg == "" {
			// The run succeeded but its result could not be persisted
			// (full disk, I/O error). That is transient: retry the
			// attempt — the rerun resumes from the last checkpoint and
			// re-persists. (retryOrQuarantine cannot recurse back here
			// with a result: quarantine/fail finishes carry result=nil.)
			if state == StateDone || state == StateNumerics {
				m.retryOrQuarantine(j, fmt.Sprintf("persist result: %v", err))
				return
			}
			state = StateFailed
			errMsg = err.Error()
			data = nil
		}
	}
	// Only fully deterministic completions are shareable: cancelled,
	// deadline and numerics outcomes depend on when the run was
	// interrupted, so neither the cache nor a follower may reuse them.
	shareable := state == StateDone && data != nil &&
		(result.Stopped == core.StopMaxIter || result.Stopped == core.StopConverged)
	var followers []*Job
	if j.hasKey {
		m.mu.Lock()
		// The cache insert and the inflight unlink share one critical
		// section with Submit's lookup, so a concurrent identical
		// submission always lands somewhere: before this point it
		// attaches as a follower, after it it hits the cache — there is
		// no window where it would silently re-run.
		if shareable && m.cache != nil {
			m.cache.Put(j.cacheKey, data)
		}
		if m.inflight[j.cacheKey] == j {
			delete(m.inflight, j.cacheKey)
		}
		j.mu.Lock()
		followers = j.followers
		j.followers = nil
		j.mu.Unlock()
		m.mu.Unlock()
	}
	// Count the outcome before the terminal state becomes visible, so
	// a reader that sees the job terminal also sees it counted.
	switch state {
	case StateDone:
		m.counters.Completed.Add(1)
		m.noteTenantCompleted(j.Spec.tenantName())
	case StateFailed:
		m.counters.Failed.Add(1)
	case StateCancelled:
		m.counters.Cancelled.Add(1)
	case StateNumerics:
		m.counters.Numerics.Add(1)
	case StateQuarantined:
		m.counters.Quarantined.Add(1)
	}
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	meta := j.metaLocked()
	j.mu.Unlock()
	_ = m.store.SaveMeta(meta)
	j.publish("state", j.Status())
	j.closeEvents()
	if len(followers) > 0 {
		if shareable {
			iter := j.iter.Load()
			for _, f := range followers {
				m.completeFollower(f, data, iter)
			}
		} else {
			m.promoteFollowers(followers)
		}
	}
}

// completeFollower finalizes a coalesced follower with the primary's
// result bytes, copied verbatim so the two jobs' result documents are
// byte-identical.
func (m *Manager) completeFollower(f *Job, data []byte, iter int64) {
	err := m.store.SaveResultBytes(f.ID, data)
	f.iter.Store(iter)
	// Counted before the terminal state becomes visible (see finish).
	if err == nil {
		m.counters.Completed.Add(1)
		m.noteTenantCompleted(f.Spec.tenantName())
	} else {
		m.counters.Failed.Add(1)
	}
	f.mu.Lock()
	f.primary = nil
	f.state = StateDone
	if err != nil {
		f.state = StateFailed
		f.errMsg = err.Error()
	}
	f.finished = time.Now()
	meta := f.metaLocked()
	f.mu.Unlock()
	_ = m.store.SaveMeta(meta)
	f.publish("state", f.Status())
	f.closeEvents()
}

// noteTenantCompleted credits a completion to the tenant's drain-rate
// bookkeeping (the input to its Retry-After hint).
func (m *Manager) noteTenantCompleted(tenant string) {
	m.mu.Lock()
	m.sched.noteCompleted(tenant)
	m.mu.Unlock()
}

// promoteFollowers re-admits the followers of a primary that ended
// without a shareable result. If another job holding the same key is
// already inflight (admitted between the old primary's unlink and
// now), everyone coalesces onto it; otherwise the first follower is
// promoted to primary — enqueued, re-registered in the single-flight
// table — and the rest follow it. During shutdown the followers are
// instead parked queued in the spool, to be recovered and rerun by the
// next startup.
func (m *Manager) promoteFollowers(followers []*Job) {
	if len(followers) == 0 {
		return
	}
	key := followers[0].cacheKey
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		for _, f := range followers {
			f.mu.Lock()
			f.primary = nil
			f.state = StateQueued
			f.started = time.Time{}
			f.resumes++
			meta := f.metaLocked()
			f.mu.Unlock()
			m.counters.Interrupted.Add(1)
			_ = m.store.SaveMeta(meta)
			f.publish("state", f.Status())
		}
		return
	}
	p, rest := followers[0], followers[1:]
	var promotedMeta *Meta
	if cur, ok := m.inflight[key]; ok {
		// cur cannot have snapshotted its followers yet: the snapshot
		// and the inflight removal happen atomically under m.mu, and cur
		// is still registered.
		p, rest = cur, followers
	} else {
		p.mu.Lock()
		p.primary = nil
		p.state = StateQueued
		p.started = time.Time{}
		p.iter.Store(0)
		promotedMeta = p.metaLocked()
		p.mu.Unlock()
		m.inflight[key] = p
		m.sched.push(p, false)
		m.cond.Signal()
	}
	for _, f := range rest {
		f.mu.Lock()
		f.primary = p
		f.mu.Unlock()
	}
	p.mu.Lock()
	p.followers = append(p.followers, rest...)
	p.mu.Unlock()
	m.mu.Unlock()
	if promotedMeta != nil {
		_ = m.store.SaveMeta(promotedMeta)
		p.publish("state", p.Status())
	}
}

// retryOrQuarantine charges one failed attempt against the job's
// retry budget. Within budget the job re-enqueues after a
// deterministic backoff (scheduleRetry); beyond it the job is
// quarantined — terminal, spool kept, requeueable via Requeue. With
// retries disabled (RetryBudget < 0) the attempt finalizes as failed,
// the pre-retry fail-fast behavior. No-op on already-terminal jobs,
// which makes it safe as a panic handler.
func (m *Manager) retryOrQuarantine(j *Job, reason string) {
	budget := m.cfg.retryBudget()
	if budget < 0 {
		m.finish(j, StateFailed, nil, reason)
		return
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.attempts++
	attempts := j.attempts
	over := attempts > budget
	cancelled := j.cancelRequested
	j.mu.Unlock()
	switch {
	case cancelled:
		// The user cancelled while the attempt was failing; honor the
		// cancel instead of retrying behind their back.
		m.finish(j, StateCancelled, nil, reason)
	case over:
		m.finish(j, StateQuarantined, nil, fmt.Sprintf(
			"retry budget exhausted after %d attempts: %s", attempts, reason))
	default:
		m.counters.Retried.Add(1)
		m.scheduleRetry(j, reason)
	}
}

// scheduleRetry parks the job queued and arms a backoff timer that
// re-enqueues it. The durable state says queued, so a crash during
// the wait recovers the job normally; the remaining delay is not
// persisted — a restart retries immediately, and the restart itself
// was the backoff. The next run resumes from the last checkpoint.
func (m *Manager) scheduleRetry(j *Job, reason string) {
	j.mu.Lock()
	attempt := j.attempts
	j.state = StateQueued
	j.cancel = nil
	j.cancelRequested = false
	j.stalled = false
	j.started, j.finished = time.Time{}, time.Time{}
	j.errMsg = reason // visible in status while the backoff runs
	delay := RetryDelay(j.ID, attempt, m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay)
	followers := append([]*Job(nil), j.followers...)
	if m.draining.Load() {
		// Shutting down: leave the job parked queued in the spool; the
		// next startup recovers and reruns it.
		j.retryTimer = nil
	} else {
		j.retryTimer = time.AfterFunc(delay, func() { m.enqueueRetry(j) })
	}
	meta := j.metaLocked()
	j.mu.Unlock()
	_ = m.store.SaveMeta(meta)
	j.publish("state", j.Status())
	// Followers mirror the primary back to queued while it waits.
	for _, f := range followers {
		f.mu.Lock()
		if f.state == StateRunning {
			f.state = StateQueued
			f.started = time.Time{}
		}
		fmeta := f.metaLocked()
		f.mu.Unlock()
		_ = m.store.SaveMeta(fmeta)
		f.publish("state", f.Status())
	}
}

// enqueueRetry is the backoff timer's callback: move the job from
// retry-wait into the run queue. Retries bypass the queue-depth limit
// — the job was admitted once and still holds its admission.
func (m *Manager) enqueueRetry(j *Job) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	j.mu.Lock()
	j.retryTimer = nil
	if j.state != StateQueued {
		j.mu.Unlock()
		m.mu.Unlock()
		return
	}
	if j.cancelRequested {
		j.mu.Unlock()
		m.mu.Unlock()
		// A cancel landed while the backoff was pending (after the
		// failing attempt checked); finalize instead of rerunning.
		m.finish(j, StateCancelled, nil, "")
		return
	}
	j.mu.Unlock()
	m.sched.push(j, false)
	m.cond.Signal()
	m.mu.Unlock()
}

// Requeue puts a quarantined job back in the run queue with a fresh
// retry budget and a fresh event stream (the quarantine closed the old
// one). The job keeps its id, spool record and checkpoint, so the
// rerun resumes where the last attempt left off and — the spec and
// canonical problem bytes being unchanged — completes bit-identically
// to an undisturbed run. Requeues bypass the queue-depth limit.
func (m *Manager) Requeue(id string) (*JobStatus, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	j.mu.Lock()
	if j.state != StateQuarantined {
		st := j.state
		j.mu.Unlock()
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (state %s)", ErrNotQuarantined, st)
	}
	j.state = StateQueued
	j.attempts = 0
	j.crashRuns = 0
	j.errMsg = ""
	j.stalled = false
	j.cancelRequested = false
	j.started, j.finished = time.Time{}, time.Time{}
	j.events.Store(newBroker())
	meta := j.metaLocked()
	// Re-enter the single-flight table when the slot is free so later
	// identical submissions coalesce onto the rerun.
	if j.hasKey {
		if _, taken := m.inflight[j.cacheKey]; !taken {
			m.inflight[j.cacheKey] = j
		}
	}
	j.mu.Unlock()
	m.sched.push(j, false)
	m.counters.Requeued.Add(1)
	m.cond.Signal()
	m.mu.Unlock()
	_ = m.store.SaveMeta(meta)
	j.publish("state", j.Status())
	return j.Status(), nil
}

// RetryAfterSeconds is the global drain-rate backoff hint (the
// /metrics gauge). 429 responses use TenantRetryAfterSeconds instead,
// so one tenant's backlog cannot inflate another tenant's backoff.
func (m *Manager) RetryAfterSeconds() int64 { return m.pressure.retryAfter() }

// TenantRetryAfterSeconds is the tenant-scoped Retry-After hint: the
// submitting tenant's own queued backlog divided by its own EWMA
// completion rate. A tenant with no backlog gets 1 second regardless
// of how congested other tenants are.
func (m *Manager) TenantRetryAfterSeconds(tenant string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.retryAfter(tenant, time.Now())
}

// run executes one job on the calling worker goroutine.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.cancelRequested {
		j.mu.Unlock()
		m.finish(j, StateCancelled, nil, "")
		return
	}
	runCtx, cancel := context.WithCancel(context.Background())
	stop := cancel
	if j.Spec.TimeoutSec > 0 {
		runCtx, stop = context.WithTimeout(runCtx, time.Duration(j.Spec.TimeoutSec*float64(time.Second)))
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	j.stalled = false
	j.preempt = false
	// Record which daemon incarnation runs this attempt: the crash-loop
	// detector at the next startup compares it against its own number.
	j.incarnation = m.incarnation
	// The worker released m.mu after popping this job, so a Shutdown
	// in between finds it neither queued nor running and does not
	// cancel it. Shutdown stores draining before it scans for running
	// jobs under each j.mu: either its scan sees this job running and
	// cancels it, or this load sees the flag.
	if m.draining.Load() {
		cancel()
	}
	meta := j.metaLocked()
	j.mu.Unlock()
	defer stop()
	defer cancel()
	// A panic anywhere in the attempt — a solver bug, a poisoned input
	// tripping a kernel — is a retryable failure, not a dead worker:
	// recover, charge the attempt, and let the worker loop continue.
	// retryOrQuarantine no-ops if the job already reached a terminal
	// state before the panic.
	defer func() {
		if r := recover(); r != nil {
			m.retryOrQuarantine(j, fmt.Sprintf("worker panic: %v", r))
		}
	}()
	_ = m.store.SaveMeta(meta)
	j.publish("state", j.Status())
	// Followers attached while the job was queued mirror the
	// transition to running; ones attaching from here on mirror it at
	// attach time.
	j.mu.Lock()
	started := j.started
	mirror := append([]*Job(nil), j.followers...)
	j.mu.Unlock()
	for _, f := range mirror {
		f.mu.Lock()
		if f.state == StateQueued {
			f.state = StateRunning
			f.started = started
		}
		fmeta := f.metaLocked()
		f.mu.Unlock()
		_ = m.store.SaveMeta(fmeta)
		f.publish("state", f.Status())
	}

	spec := j.Spec
	threads := spec.Threads
	if threads == 0 {
		threads = m.cfg.Threads
	}
	p, err := m.store.LoadProblem(j.ID, threads)
	if err != nil {
		// Could be transient I/O; charge the attempt and retry.
		m.retryOrQuarantine(j, err.Error())
		return
	}
	resume, err := m.store.LoadCheckpoint(j.ID)
	if err == nil && resume != nil {
		err = resume.Validate(p, spec.methodName())
	}
	if err != nil {
		// A checkpoint that is corrupt, or well-formed but not this
		// job's (another problem or method), is not fatal: rerun from
		// scratch (the full rerun is still identical to an
		// uninterrupted run). Handing it to Align would fail every
		// attempt the same way until the job is quarantined.
		m.counters.CheckpointsDiscarded.Add(1)
		log.Printf("job %s: discarding checkpoint, rerunning from scratch: %v", j.ID, err)
		resume = nil
	}

	reporter := core.NewProgressReporter(p, spec.ProgressEvery, func(ev core.ProgressEvent) {
		j.iter.Store(int64(ev.Iter))
		j.publish("progress", ev)
		// Fan progress out to coalesced followers: their SSE streams
		// see the shared execution's iterations as their own.
		j.mu.Lock()
		fs := append([]*Job(nil), j.followers...)
		j.mu.Unlock()
		for _, f := range fs {
			f.iter.Store(int64(ev.Iter))
			f.publish("progress", ev)
		}
	})
	ckptEvery := spec.CheckpointEvery
	if ckptEvery == 0 {
		ckptEvery = m.cfg.CheckpointEvery
	}
	ckptPath := m.store.CheckpointPath(j.ID)
	// Under disk pressure, checkpoint writes thin out to every
	// ckptStretch()-th due checkpoint. Sampled per call, so cadence
	// responds mid-run when pressure arrives or clears; each write is
	// atomic, so a skipped (or failed) write leaves the previous
	// checkpoint valid.
	ckptDue := 0
	ckptFunc := func(c *core.Checkpoint) error {
		if s := m.pressure.ckptStretch(); s > 1 {
			ckptDue++
			if ckptDue%s != 0 {
				return nil
			}
		}
		return problemio.WriteCheckpointFile(ckptPath, c)
	}
	mspec, err := matching.ParseMatcherSpec(spec.matcherText())
	if err != nil {
		// Unreachable for accepted jobs (Validate parses the same text
		// at submit time), but a spool edited by hand can get here.
		m.finish(j, StateFailed, nil, err.Error())
		return
	}
	method := core.MethodBP
	if spec.methodName() == "mr" {
		method = core.MethodMR
	}

	// The heartbeat wraps the raw observers, which the solvers call on
	// every iteration (the reporter throttles to ProgressEvery
	// internally) — so the watchdog sees an unthrottled beat even for
	// jobs with sparse progress reporting.
	bpObs := reporter.BPObserver()
	mrObs := reporter.MRObserver()
	beatBP := func(iter int, y, z []float64) {
		j.beat.Add(1)
		bpObs(iter, y, z)
	}
	beatMR := func(iter int, wbar []float64, upper, obj float64) {
		j.beat.Add(1)
		mrObs(iter, wbar, upper, obj)
	}
	if eff := stallTimeoutFor(m.cfg.StallTimeout, p.NNZS()); eff > 0 {
		go watchProgress(runCtx, m.cfg.StallCheckEvery, eff, j.beat.Load, func() {
			j.mu.Lock()
			j.stalled = true
			j.mu.Unlock()
			m.counters.Stalled.Add(1)
			cancel()
		})
	}

	res, runErr := p.Align(runCtx, core.Options{
		Method: method,
		BP: core.BPOptions{
			Iterations: spec.Iterations, Gamma: spec.Gamma, Batch: spec.Batch,
			Threads: threads, Matcher: mspec, Timer: m.timer,
			Observer: beatBP,
			Resume:   resume, CheckpointEvery: ckptEvery, CheckpointFunc: ckptFunc,
		},
		MR: core.MROptions{
			Iterations: spec.Iterations, Gamma: spec.Gamma, MStep: spec.MStep,
			Threads: threads, Matcher: mspec, Timer: m.timer,
			Observer: beatMR,
			Resume:   resume, CheckpointEvery: ckptEvery, CheckpointFunc: ckptFunc,
		},
	})

	j.mu.Lock()
	userCancelled := j.cancelRequested
	stalled := j.stalled
	preempted := j.preempt
	j.mu.Unlock()

	switch {
	case runErr != nil:
		// Solver and checkpoint-write errors are treated as transient:
		// the next attempt resumes from the last good checkpoint.
		m.retryOrQuarantine(j, runErr.Error())
	case res.Stopped == core.StopCancelled && stalled && !userCancelled && !m.draining.Load():
		// The watchdog cancelled a run whose iteration counter stopped
		// advancing; charge the attempt like any other failure.
		m.retryOrQuarantine(j, "stalled: iteration counter stopped advancing past the watchdog deadline")
	case res.Stopped == core.StopCancelled && !userCancelled && m.draining.Load():
		// Interrupted by shutdown, not by the user: requeue so the
		// next startup resumes from the latest checkpoint. Followers
		// detach and park queued too — each recovers as its own job
		// (and re-coalesces at that startup via the inflight re-key).
		var followers []*Job
		m.mu.Lock()
		if j.hasKey && m.inflight[j.cacheKey] == j {
			delete(m.inflight, j.cacheKey)
		}
		j.mu.Lock()
		followers = j.followers
		j.followers = nil
		j.state = StateQueued
		j.cancel = nil
		j.started = time.Time{}
		j.resumes++
		meta := j.metaLocked()
		j.mu.Unlock()
		m.mu.Unlock()
		m.counters.Interrupted.Add(1)
		_ = m.store.SaveMeta(meta)
		j.publish("state", j.Status())
		j.closeEvents()
		for _, f := range followers {
			f.mu.Lock()
			f.primary = nil
			f.state = StateQueued
			f.started = time.Time{}
			f.resumes++
			fmeta := f.metaLocked()
			f.mu.Unlock()
			m.counters.Interrupted.Add(1)
			_ = m.store.SaveMeta(fmeta)
			f.publish("state", f.Status())
		}
	case res.Stopped == core.StopCancelled && preempted && !userCancelled:
		// Checkpoint-preempted to free the slot for an interactive job:
		// park back at the HEAD of the tenant queue (the job already
		// accumulated service; it must not re-queue behind its tenant's
		// newer batch work). The event broker stays open — subscribers
		// see queued now and the same stream resumes with the next
		// attempt, which picks up from the latest checkpoint and is
		// bit-identical to an uninterrupted run.
		m.mu.Lock()
		j.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		j.preempt = false
		j.started = time.Time{}
		j.preemptions++
		meta := j.metaLocked()
		followers := append([]*Job(nil), j.followers...)
		j.mu.Unlock()
		m.sched.push(j, true)
		m.sched.tenant(j.Spec.tenantName()).preempted++
		m.counters.Preempted.Add(1)
		m.cond.Signal()
		m.mu.Unlock()
		_ = m.store.SaveMeta(meta)
		j.publish("state", j.Status())
		// Coalesced followers mirror the primary back to queued, exactly
		// as they do across a retry backoff.
		for _, f := range followers {
			f.mu.Lock()
			if f.state == StateRunning {
				f.state = StateQueued
				f.started = time.Time{}
			}
			fmeta := f.metaLocked()
			f.mu.Unlock()
			_ = m.store.SaveMeta(fmeta)
			f.publish("state", f.Status())
		}
	case res.Stopped == core.StopCancelled:
		m.finish(j, StateCancelled, res.JSON(), "")
	case res.Stopped == core.StopNumerics:
		// A numeric guard stop retries from the last checkpoint while
		// budget remains. Once the budget is spent the job finalizes as
		// numerics — with its best partial result persisted — rather
		// than quarantining, so the caller still gets the diagnostics.
		j.mu.Lock()
		attempts := j.attempts
		j.mu.Unlock()
		if b := m.cfg.retryBudget(); b >= 0 && attempts < b {
			m.retryOrQuarantine(j, "numeric guard stop; retrying from last checkpoint")
		} else {
			m.finish(j, StateNumerics, res.JSON(), "")
		}
	default:
		// StopMaxIter, StopConverged and StopDeadline all complete the
		// job; the result's stop reason tells them apart.
		m.finish(j, StateDone, res.JSON(), "")
	}
}

// Draining reports whether shutdown has begun.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Ready reports whether the manager is accepting new work: nil when a
// submission would be admitted (resource gates permitting), or the
// sentinel the admission path would reject with — ErrDraining during
// shutdown, ErrOverloaded under memory shedding, ErrDiskPressure when
// the spool volume is below its free-space floor. /readyz renders
// this; a router or load balancer uses it to stop routing to a node
// that will refuse the work anyway.
func (m *Manager) Ready() error {
	if m.draining.Load() {
		return ErrDraining
	}
	if m.pressure.memShedding() {
		return ErrOverloaded
	}
	if m.pressure.diskRefusing() {
		return ErrDiskPressure
	}
	return nil
}

// CachePeek returns the cached result bytes for a key without
// touching the hit/miss counters — the serve-by-key endpoint behind
// cluster peer fill (a neighbor's probe must not skew this node's own
// cache metrics). Always a miss when the cache is disabled.
func (m *Manager) CachePeek(key cache.Key) ([]byte, bool) {
	if m.cache == nil {
		return nil, false
	}
	return m.cache.Peek(key)
}

// Shutdown drains the pool: no new submissions are accepted, running
// jobs are cancelled (they stop at the next iteration boundary and
// stay resumable from their last checkpoint), and workers are awaited
// until ctx expires. With Config.Handoff set the drain is proactive:
// once the workers have stopped (so every interrupted run has parked
// queued with its latest checkpoint on disk), each queued job is
// exported to its ring successor and tombstoned handed_off. Jobs no
// peer accepts — and all queued jobs when no sender is configured —
// remain queued in the spool and run on the next startup.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.draining.Store(true)
	m.pressure.shutdown()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	var running []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			running = append(running, j)
		}
		// Stop pending retry backoffs: the job stays parked queued in
		// the spool and reruns on the next startup. (A timer that
		// already fired sees m.closed and backs off.)
		if t := j.retryTimer; t != nil {
			t.Stop()
			j.retryTimer = nil
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, j := range running {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Proactive handoff runs strictly after the workers have stopped:
	// the drain-requeue path has parked every interrupted run queued
	// and its last checkpoint rename has completed, so the exported
	// spool state is exactly what a local resume would see.
	if m.cfg.Handoff != nil && err == nil {
		m.handoffQueued(ctx)
	}
	// Disconnect any remaining SSE subscribers (queued jobs, and
	// running jobs that outlived the deadline).
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.closeEvents()
	}
	return err
}

// Metrics is a point-in-time snapshot for /metrics and /debug/vars.
type Metrics struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	QueueDepth    int     `json:"queueDepth"`
	Running       int     `json:"running"`
	Submitted     int64   `json:"submitted"`
	Resumed       int64   `json:"resumed"`
	Interrupted   int64   `json:"interrupted"`
	Rejected      int64   `json:"rejected"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	Cancelled     int64   `json:"cancelled"`
	Numerics      int64   `json:"numerics"`
	Coalesced     int64   `json:"coalesced"`
	Retried       int64   `json:"retried"`
	Quarantined   int64   `json:"quarantined"`
	Requeued      int64   `json:"requeued"`
	Stalled       int64   `json:"stalled"`
	ShedMemory    int64   `json:"shedMemory"`
	RefusedDisk   int64   `json:"refusedDisk"`
	// Preempted counts batch runs checkpoint-preempted for interactive
	// jobs; ShedQuota counts submissions refused by per-tenant quotas;
	// Expired counts jobs failed because their queue deadline passed
	// before dispatch.
	Preempted int64 `json:"preempted"`
	ShedQuota int64 `json:"shedQuota"`
	Expired   int64 `json:"expired"`
	// Drain-handoff counters: queued jobs exported to a ring successor
	// at drain, jobs admitted from a peer's drain, and exports no peer
	// accepted (those stay queued in the spool).
	HandoffSent     int64 `json:"handoffSent"`
	HandoffReceived int64 `json:"handoffReceived"`
	HandoffFailed   int64 `json:"handoffFailed"`
	// CheckpointsDiscarded counts checkpoints a run found unreadable
	// or not its job's, dropped so the job reruns from scratch.
	CheckpointsDiscarded int64 `json:"checkpointsDiscarded"`
	// Tenants is the per-tenant rollup: queue depths, running slots,
	// lifetime admission/completion/preemption/shed counters, weights
	// and cumulative queue-wait time.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
	// QuarantinedNow is the gauge of jobs currently quarantined (the
	// operator's "needs attention" number); Quarantined above is the
	// lifetime counter.
	QuarantinedNow int `json:"quarantinedNow"`
	// Pressure gauges: free spool bytes and process RSS from the last
	// sample (zero when the monitor is off), the disk level (0 ok,
	// 1 degraded, 2 refusing), whether memory shedding is active, and
	// the current Retry-After hint.
	DiskFreeBytes int64 `json:"diskFreeBytes,omitempty"`
	RSSBytes      int64 `json:"rssBytes,omitempty"`
	DiskPressure  int   `json:"diskPressure"`
	MemPressure   bool  `json:"memPressure"`
	RetryAfterSec int64 `json:"retryAfterSec"`
	// PeerFillEnabled marks a node running with a cluster peer filler;
	// PeerFills counts submissions admitted from a peer's cache, and
	// PeerFill carries the filler's own probe counters.
	PeerFillEnabled bool               `json:"peerFillEnabled,omitempty"`
	PeerFills       int64              `json:"peerFills,omitempty"`
	PeerFill        PeerFillStats      `json:"peerFill"`
	CacheEnabled    bool               `json:"cacheEnabled"`
	CacheHits       int64              `json:"cacheHits"`
	CacheDiskHits   int64              `json:"cacheDiskHits"`
	CacheMisses     int64              `json:"cacheMisses"`
	CacheEvicted    int64              `json:"cacheEvicted"`
	CacheCorrupt    int64              `json:"cacheCorrupt"`
	CacheBytes      int64              `json:"cacheBytes"`
	CacheEntries    int                `json:"cacheEntries"`
	StepSeconds     map[string]float64 `json:"stepSeconds"`
}

// Snapshot collects the current metrics.
func (m *Manager) Snapshot() Metrics {
	m.mu.Lock()
	depth := m.sched.size
	running, quarantined := 0, 0
	runningByTenant := make(map[string]int)
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateRunning:
			running++
			runningByTenant[j.Spec.tenantName()]++
		case StateQuarantined:
			quarantined++
		}
		j.mu.Unlock()
	}
	tenants := m.sched.snapshot()
	for name, n := range runningByTenant {
		tm := tenants[name]
		tm.Running = n
		tenants[name] = tm
	}
	m.mu.Unlock()
	steps := make(map[string]float64)
	for step, d := range m.timer.Snapshot() {
		steps[step] = d.Seconds()
	}
	out := Metrics{
		UptimeSeconds:        time.Since(m.start).Seconds(),
		QueueDepth:           depth,
		Running:              running,
		Submitted:            m.counters.Submitted.Load(),
		Resumed:              m.counters.Resumed.Load(),
		Interrupted:          m.counters.Interrupted.Load(),
		Rejected:             m.counters.Rejected.Load(),
		Completed:            m.counters.Completed.Load(),
		Failed:               m.counters.Failed.Load(),
		Cancelled:            m.counters.Cancelled.Load(),
		Numerics:             m.counters.Numerics.Load(),
		Coalesced:            m.counters.Coalesced.Load(),
		Retried:              m.counters.Retried.Load(),
		Quarantined:          m.counters.Quarantined.Load(),
		Requeued:             m.counters.Requeued.Load(),
		Stalled:              m.counters.Stalled.Load(),
		ShedMemory:           m.counters.ShedMemory.Load(),
		RefusedDisk:          m.counters.RefusedDisk.Load(),
		Preempted:            m.counters.Preempted.Load(),
		ShedQuota:            m.counters.ShedQuota.Load(),
		Expired:              m.counters.Expired.Load(),
		HandoffSent:          m.counters.HandoffSent.Load(),
		HandoffReceived:      m.counters.HandoffReceived.Load(),
		HandoffFailed:        m.counters.HandoffFailed.Load(),
		CheckpointsDiscarded: m.counters.CheckpointsDiscarded.Load(),
		Tenants:              tenants,
		QuarantinedNow:       quarantined,
		DiskFreeBytes:        m.pressure.diskFreeBytes.Load(),
		RSSBytes:             m.pressure.rssBytes.Load(),
		DiskPressure:         int(m.pressure.diskLevel.Load()),
		MemPressure:          m.pressure.memShedding(),
		RetryAfterSec:        m.pressure.retryAfter(),
		PeerFills:            m.counters.PeerFills.Load(),
		StepSeconds:          steps,
	}
	if m.cfg.PeerFiller != nil {
		out.PeerFillEnabled = true
		out.PeerFill = m.cfg.PeerFiller.Stats()
	}
	if m.cache != nil {
		st := m.cache.Stats()
		out.CacheEnabled = true
		out.CacheHits = st.Hits
		out.CacheDiskHits = st.DiskHits
		out.CacheMisses = st.Misses
		out.CacheEvicted = st.Evictions
		out.CacheCorrupt = st.Corrupt
		out.CacheBytes = st.Bytes
		out.CacheEntries = st.Entries
	}
	return out
}
