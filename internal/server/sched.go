package server

import "time"

// Priority classes. Interactive jobs are dispatched before batch jobs
// whenever any are queued, across all tenants; within a class, tenants
// share the workers by weighted fair queuing. The guard against an
// interactive flood starving batch entirely is the per-tenant quota,
// not the scheduler.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

// classIndex maps an effective class name to its queue slot.
func classIndex(class string) int {
	if class == ClassInteractive {
		return 0
	}
	return 1
}

// strideScale is the stride numerator: a tenant's virtual-time pass
// advances by strideScale/weight per dispatch, so over any saturated
// interval tenants receive worker dispatches proportionally to their
// weights (classic stride scheduling). 1<<20 keeps integer resolution
// for weight ratios up to ~10^6.
const strideScale = 1 << 20

// tenantState is one tenant's scheduling state and lifetime counters.
// Everything here is guarded by the Manager's mu; the scheduler has no
// locking of its own.
type tenantState struct {
	name   string
	weight int64
	// pass is the tenant's virtual time: the stride-scheduling clock
	// that implements weighted fair sharing. Low pass = underserved.
	pass uint64
	// q holds the two class FIFOs: q[0] interactive, q[1] batch.
	q [2][]*Job

	// Lifetime counters for /metrics.
	submitted int64
	completed int64
	preempted int64
	shed      int64
	waitNanos int64

	// Lazily updated EWMA of the tenant's completion rate, feeding the
	// tenant-scoped Retry-After hint: one tenant's backlog must not
	// inflate another tenant's backoff.
	lastCompleted int64
	lastSample    time.Time
	ratePerSec    float64
}

// queued is the tenant's total queued jobs across both classes.
func (ts *tenantState) queued() int { return len(ts.q[0]) + len(ts.q[1]) }

// schedQueue replaces the Manager's old single slice-FIFO: per-tenant
// weighted fair queuing (stride/virtual-time over configured weights)
// with two priority classes. All methods require the Manager's mu.
type schedQueue struct {
	weights map[string]int64
	tenants map[string]*tenantState
	// vtime is the global virtual time: the pass of the most recently
	// dispatched tenant. A tenant waking from idle starts at
	// max(own pass, vtime) so idleness banks no credit.
	vtime uint64
	size  int
}

func newSchedQueue(weights map[string]int64) *schedQueue {
	s := &schedQueue{
		weights: weights,
		tenants: make(map[string]*tenantState),
	}
	// Pre-create configured tenants so their weight and zeroed counters
	// show up in /metrics before their first submission.
	for name := range weights {
		s.tenant(name)
	}
	return s
}

// tenant returns (creating on first use) a tenant's state. Unknown
// tenants get weight 1.
func (s *schedQueue) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		w := s.weights[name]
		if w <= 0 {
			w = 1
		}
		ts = &tenantState{name: name, weight: w, lastSample: time.Now()}
		s.tenants[name] = ts
	}
	return ts
}

// stride is the tenant's per-dispatch virtual-time charge.
func (ts *tenantState) stride() uint64 { return uint64(strideScale / ts.weight) }

// push enqueues a job in its tenant's class queue. front puts it at
// the head — used when a preempted job parks back, so it resumes
// before its tenant's newer work (it has already accumulated service).
func (s *schedQueue) push(j *Job, front bool) {
	ts := s.tenant(j.Spec.tenantName())
	if ts.queued() == 0 && ts.pass < s.vtime {
		ts.pass = s.vtime
	}
	ci := classIndex(j.Spec.className())
	if front {
		ts.q[ci] = append([]*Job{j}, ts.q[ci]...)
	} else {
		ts.q[ci] = append(ts.q[ci], j)
	}
	j.enqueuedAt = time.Now()
	s.size++
}

// pop dispatches the next job: the interactive class drains first;
// within a class, the tenant with the minimum pass wins (name-ordered
// tie-break for determinism — Go map iteration is randomized). The
// winning tenant's pass advances by its stride, and the job's queue
// wait is charged to the tenant's wait counter.
func (s *schedQueue) pop(now time.Time) *Job {
	for ci := 0; ci < 2; ci++ {
		var best *tenantState
		for _, ts := range s.tenants {
			if len(ts.q[ci]) == 0 {
				continue
			}
			if best == nil || ts.pass < best.pass ||
				(ts.pass == best.pass && ts.name < best.name) {
				best = ts
			}
		}
		if best == nil {
			continue
		}
		j := best.q[ci][0]
		best.q[ci] = best.q[ci][1:]
		s.vtime = best.pass
		best.pass += best.stride()
		best.waitNanos += now.Sub(j.enqueuedAt).Nanoseconds()
		s.size--
		return j
	}
	return nil
}

// remove takes a queued job out of its tenant queue (cancellation).
// Reports whether the job was found.
func (s *schedQueue) remove(j *Job) bool {
	ts, ok := s.tenants[j.Spec.tenantName()]
	if !ok {
		return false
	}
	ci := classIndex(j.Spec.className())
	for i, q := range ts.q[ci] {
		if q == j {
			ts.q[ci] = append(ts.q[ci][:i], ts.q[ci][i+1:]...)
			s.size--
			return true
		}
	}
	return false
}

// depth is one tenant's queued-job count (the quota input).
func (s *schedQueue) depth(tenant string) int {
	ts, ok := s.tenants[tenant]
	if !ok {
		return 0
	}
	return ts.queued()
}

// noteCompleted credits a finished job to its tenant's drain-rate
// bookkeeping.
func (s *schedQueue) noteCompleted(tenant string) {
	s.tenant(tenant).completed++
}

// retryAfter computes the tenant-scoped Retry-After hint: how long the
// tenant's own backlog takes to drain at the tenant's own EWMA
// completion rate, clamped to [1s, 120s]. The EWMA refreshes lazily —
// at most every retryAfterRefresh — from the completion counter, so
// the hint needs no background goroutine and an idle tenant costs
// nothing. A tenant with no backlog is told to come right back.
func (s *schedQueue) retryAfter(tenant string, now time.Time) int64 {
	ts, ok := s.tenants[tenant]
	if !ok {
		return 1
	}
	if dt := now.Sub(ts.lastSample).Seconds(); dt >= retryAfterRefresh.Seconds() {
		inst := float64(ts.completed-ts.lastCompleted) / dt
		ts.ratePerSec = 0.7*ts.ratePerSec + 0.3*inst
		ts.lastCompleted = ts.completed
		ts.lastSample = now
	}
	depth := ts.queued()
	if depth == 0 {
		return 1
	}
	hint := int64(10)
	if ts.ratePerSec > 1e-6 {
		hint = int64(float64(depth)/ts.ratePerSec) + 1
	}
	if hint < 1 {
		hint = 1
	}
	if hint > 120 {
		hint = 120
	}
	return hint
}

// retryAfterRefresh bounds how often one tenant's EWMA resamples.
const retryAfterRefresh = 500 * time.Millisecond

// TenantMetrics is one tenant's slice of the manager snapshot.
type TenantMetrics struct {
	// Weight is the tenant's fair-share weight (configured, default 1).
	Weight int64 `json:"weight"`
	// Queued / QueuedInteractive are current queue depths (batch depth
	// is their difference); Running counts the tenant's jobs holding
	// worker slots right now.
	Queued            int `json:"queued"`
	QueuedInteractive int `json:"queuedInteractive"`
	Running           int `json:"running"`
	// Lifetime counters: admissions, completions, checkpoint
	// preemptions, and tenant-scoped sheds (quota 429s plus pressure
	// sheds attributed to this tenant).
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Preempted int64 `json:"preempted"`
	Shed      int64 `json:"shed"`
	// WaitSeconds is cumulative queue wait across the tenant's
	// dispatched jobs — wait time / dispatches is the tenant's mean
	// scheduling latency.
	WaitSeconds float64 `json:"waitSeconds"`
}

// snapshot renders every known tenant's metrics, sorted map for
// deterministic iteration left to the caller (it's a map).
func (s *schedQueue) snapshot() map[string]TenantMetrics {
	out := make(map[string]TenantMetrics, len(s.tenants))
	for name, ts := range s.tenants {
		out[name] = TenantMetrics{
			Weight:            ts.weight,
			Queued:            ts.queued(),
			QueuedInteractive: len(ts.q[0]),
			Submitted:         ts.submitted,
			Completed:         ts.completed,
			Preempted:         ts.preempted,
			Shed:              ts.shed,
			WaitSeconds:       time.Duration(ts.waitNanos).Seconds(),
		}
	}
	return out
}
