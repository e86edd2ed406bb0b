package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"netalignmc/internal/cache"
)

// HandoffJob is the wire form of one drained job: everything a ring
// successor needs to admit it under the same id and resume it
// bit-identically — the spec (tenant, class, deadline, solver
// options), the canonical problem bytes exactly as the sender's spool
// recorded them, the retry/resume/preemption budgets, and the latest
// checkpoint verbatim. Problem and Checkpoint ride as base64 in JSON
// ([]byte encoding); RouteKey is sender-side routing state and never
// crosses the wire.
type HandoffJob struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// Created is the job's original admission time; the receiver keeps
	// it so listing order and queue-deadline accounting survive the
	// move.
	Created time.Time `json:"created"`
	// Attempts / Resumes / Preemptions carry the job's lifecycle
	// budgets: a job cannot reset its retry budget by being drained.
	Attempts    int `json:"attempts,omitempty"`
	Resumes     int `json:"resumes,omitempty"`
	Preemptions int `json:"preemptions,omitempty"`
	// Problem is the canonical problem.txt payload; Checkpoint is the
	// latest checkpoint.ckpt payload (absent when the job never ran).
	Problem    []byte `json:"problem"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// RouteKey is the ring key the sender places the job with: the
	// job's cache key when it has one (so the handoff lands where the
	// router already steers identical submissions), else the job id.
	RouteKey []byte `json:"-"`
}

// HandoffSender delivers one drained job to a cluster peer, returning
// the base URL of the node that accepted it. Implementations try the
// job's ring successors in order and treat any per-node refusal
// (draining, quota, pressure) as "try the next one"; an error means no
// peer accepted and the job stays queued in the local spool. Called
// during Shutdown, outside the manager lock — it is expected to do
// network I/O bounded by ctx.
type HandoffSender interface {
	Handoff(ctx context.Context, h *HandoffJob) (node string, err error)
}

// handoffQueued exports every still-queued job to its ring successor.
// Called from Shutdown after the workers have stopped: interrupted
// runs have parked queued and their last checkpoint rename has
// completed, so the spool holds exactly the state a local resume
// would see. Jobs are exported oldest-first (bounded drain windows
// hand off the work that has waited longest); each failure leaves
// that job queued for next-startup recovery and moves on.
func (m *Manager) handoffQueued(ctx context.Context) {
	m.mu.Lock()
	var queued []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateQueued {
			queued = append(queued, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	sort.Slice(queued, func(a, b int) bool {
		return queued[a].created.Before(queued[b].created)
	})
	for _, j := range queued {
		if ctx.Err() != nil {
			return
		}
		m.handoffOne(ctx, j)
	}
}

// handoffOne offers one queued job to the configured sender and, on
// acceptance, tombstones the local copy handed_off. The terminal
// state is persisted before the method returns, so a crash right
// after the send cannot make recovery re-run a job a successor now
// owns. A send failure (or a job that left queued concurrently — a
// late user cancel) leaves the spool untouched.
func (m *Manager) handoffOne(ctx context.Context, j *Job) {
	pb, err := m.store.LoadProblemBytes(j.ID)
	if err != nil {
		m.counters.HandoffFailed.Add(1)
		return
	}
	ck, err := m.store.LoadCheckpointBytes(j.ID)
	if err != nil {
		// Unreadable checkpoint: hand the job off without it — the
		// successor reruns from scratch, which is still bit-identical
		// to an undisturbed run (same canonical problem bytes).
		ck = nil
	}
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	h := &HandoffJob{
		ID: j.ID, Spec: j.Spec, Created: j.created,
		Attempts: j.attempts, Resumes: j.resumes, Preemptions: j.preemptions,
		Problem: pb, Checkpoint: ck,
	}
	if j.hasKey {
		h.RouteKey = append([]byte(nil), j.cacheKey[:]...)
	} else {
		h.RouteKey = []byte(j.ID)
	}
	j.mu.Unlock()
	node, err := m.cfg.Handoff.Handoff(ctx, h)
	if err != nil {
		// No peer accepted; the job stays queued in the spool and the
		// next startup recovers it — proactive drain degrades to the
		// plain drain behavior, never loses work.
		m.counters.HandoffFailed.Add(1)
		return
	}
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while the send was in flight: honor the local
		// terminal state; the successor's copy runs to completion there.
		j.mu.Unlock()
		return
	}
	j.state = StateHandedOff
	j.handedTo = node
	j.finished = time.Now()
	meta := j.metaLocked()
	j.mu.Unlock()
	if err := m.store.SaveMeta(meta); err != nil {
		// The tombstone never reached disk: the spool still says
		// queued, so the next startup will recover and re-run the job
		// this node just gave away. Roll the in-memory state back to
		// match the spool rather than publish a terminal state that is
		// not durable — the duplicate run this risks is bit-identical
		// (wasted compute, not divergent results), whereas a
		// memory/disk split would also break every in-process reader.
		j.mu.Lock()
		if j.state == StateHandedOff {
			j.state = StateQueued
			j.handedTo = ""
			j.finished = time.Time{}
		}
		j.mu.Unlock()
		m.counters.HandoffFailed.Add(1)
		return
	}
	m.counters.HandoffSent.Add(1)
	j.publish("state", j.Status())
	j.closeEvents()
}

// AdmitHandoff is the receiving half of a proactive drain: admit a
// peer's exported job under its original id, through the same
// admission gates a fresh submission faces — draining, memory and
// disk pressure, per-tenant quota, queue depth. The problem bytes are
// persisted verbatim and the checkpoint (when present) installed
// before the job becomes visible, so the resumed run is bit-identical
// to one that never moved. Redelivery is idempotent: an id this node
// already knows returns its current status without admitting twice —
// unless the local copy is a handed_off tombstone, which is refused
// with ErrAlreadyHandedOff (see there).
func (m *Manager) AdmitHandoff(h *HandoffJob) (*JobStatus, error) {
	if !jobIDPattern.MatchString(h.ID) {
		return nil, fmt.Errorf("%w: malformed handoff job id %q", ErrBadSpec, h.ID)
	}
	if err := h.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if len(h.Problem) == 0 {
		return nil, fmt.Errorf("%w: handoff carries no problem bytes", ErrBadSpec)
	}
	if m.draining.Load() {
		return nil, ErrDraining
	}
	if m.pressure.memShedding() {
		m.counters.ShedMemory.Add(1)
		m.noteTenantShed(h.Spec.tenantName())
		return nil, ErrOverloaded
	}
	if m.pressure.diskRefusing() {
		m.counters.RefusedDisk.Add(1)
		return nil, ErrDiskPressure
	}
	// The problem arrives already canonicalized (the sender ships its
	// spool bytes), so the cache key is a plain hash away — no problem
	// build needed.
	var key cache.Key
	cacheable := false
	if m.cache != nil && h.Spec.TimeoutSec == 0 {
		if fp, ok := h.Spec.cacheFingerprint(); ok {
			key = cache.KeyFor(h.Problem, fp)
			cacheable = true
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if existing, ok := m.jobs[h.ID]; ok {
		m.mu.Unlock()
		st := existing.Status()
		if st.State == StateHandedOff {
			// This node only holds a tombstone for the id: it exported
			// the job in an earlier drain and does not own it. In a
			// rolling restart the job's ring successor may offer it
			// right back here; answering 202 would let the sender
			// tombstone its live copy too — the job terminal on both
			// nodes, never run. Refuse so the sender tries the next
			// successor (or keeps the job queued for its own recovery).
			return nil, fmt.Errorf("%w: job %s was handed off to %s in an earlier drain",
				ErrAlreadyHandedOff, h.ID, st.HandedOffTo)
		}
		return st, nil
	}
	tenant := h.Spec.tenantName()
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
	j := &Job{
		ID: h.ID, Spec: h.Spec, state: StateQueued,
		created:  h.Created,
		attempts: h.Attempts, preemptions: h.Preemptions,
		resumes:  h.Resumes,
		cacheKey: key, hasKey: cacheable,
	}
	if j.created.IsZero() {
		j.created = time.Now()
	}
	if len(h.Checkpoint) > 0 {
		// The next run resumes from the shipped checkpoint: that is a
		// resume, exactly as if this node's own daemon had restarted.
		j.resumes++
	}
	j.events.Store(newBroker())
	// Persist problem + checkpoint before job.json (and job.json
	// before the queue), mirroring Submit: a crash mid-admission
	// leaves either no readable record (recovery skips it; the sender
	// never got its 202 and keeps the job queued) or a complete one.
	err := m.store.CreateJob(h.ID)
	if err == nil {
		err = m.store.SaveProblemBytes(h.ID, h.Problem)
	}
	if err == nil && len(h.Checkpoint) > 0 {
		err = m.store.SaveCheckpointBytes(h.ID, h.Checkpoint)
	}
	if err == nil {
		err = m.store.SaveMeta(j.metaLocked())
	}
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if cacheable {
		if _, taken := m.inflight[key]; !taken {
			m.inflight[key] = j
		}
	}
	m.jobs[h.ID] = j
	m.sched.push(j, false)
	m.sched.tenant(tenant).submitted++
	m.counters.Submitted.Add(1)
	m.counters.HandoffReceived.Add(1)
	m.cond.Signal()
	m.mu.Unlock()
	return j.Status(), nil
}
