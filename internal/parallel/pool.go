package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of parked worker goroutines that parallel
// regions dispatch onto without per-region goroutine creation. The
// solvers create one pool per run (one worker per solver thread) and
// close it when the run ends; the package-level free functions share a
// process-wide lazily started pool (see acquireShared).
//
// Dispatch protocol: the dispatching goroutine takes pl.mu, fills the
// region descriptor fields, and sends one token to each participating
// worker's wake channel. The channel send publishes the descriptor
// writes (channel communication establishes happens-before), so the
// descriptor needs no locking of its own. Each worker runs its share of
// the region and decrements remain; the worker that drops it to zero
// signals doneCh, releasing the dispatcher. Worker panics are captured
// and re-raised on the dispatcher's goroutine, mirroring panicBox.
//
// A region body must not dispatch onto the pool it is running on; the
// entry points use TryLock and fall back to the per-call spawning path
// when the pool is occupied, so nested or concurrent dispatch degrades
// to the pre-pool behaviour instead of deadlocking.
//
// The steady-state dispatch path performs no allocations: descriptor
// fields are plain assignments and the wake/done channels are
// preallocated, which is what keeps the solver hot loops at zero
// allocations per iteration with the pool enabled.
type Pool struct {
	mu     sync.Mutex
	size   int
	wake   []chan struct{}
	doneCh chan struct{}
	closed bool

	// Region descriptor: valid from dispatch until doneCh fires.
	// Written under mu before the wake sends, read by woken workers.
	mode    int
	n       int
	chunk   int
	active  int
	body    func(lo, hi int)
	bodyW   func(worker, lo, hi int)
	fold    func(lo, hi int) float64
	tasks   []func(threads int)
	offsets []int
	done    <-chan struct{}

	partials []float64

	next     atomic.Int64
	remain   atomic.Int32
	hasPanic atomic.Bool
	panicVal interface{}
}

// Region kinds. The mode field selects the worker-side loop.
const (
	regionStatic = iota
	regionDynamic
	regionDynamicWorker
	regionOffsets
	regionOffsetsWorker
	regionReduce
	regionTasks
)

// NewPool creates a pool of p parked workers (p <= 0 selects
// GOMAXPROCS). The workers live until Close; an unused pool costs only
// the parked goroutine stacks.
func NewPool(p int) *Pool {
	p = Threads(p)
	pl := &Pool{
		size:     p,
		wake:     make([]chan struct{}, p),
		doneCh:   make(chan struct{}, 1),
		partials: make([]float64, p),
	}
	for t := range pl.wake {
		// Buffered so the end-of-region wake send never blocks on a
		// worker that has decremented remain but not yet looped back to
		// its receive.
		pl.wake[t] = make(chan struct{}, 1)
	}
	for t := 0; t < p; t++ {
		go pl.workerLoop(t)
	}
	poolWorkersGauge.Add(int64(p))
	return pl
}

// Close terminates the pool's workers. It blocks until any in-flight
// region has finished; regions dispatched after Close fall back to the
// spawning path. Close is idempotent.
func (pl *Pool) Close() {
	pl.mu.Lock()
	if !pl.closed {
		pl.closed = true
		for _, ch := range pl.wake {
			close(ch)
		}
		poolWorkersGauge.Add(-int64(pl.size))
	}
	pl.mu.Unlock()
}

func (pl *Pool) workerLoop(t int) {
	for range pl.wake[t] {
		busyWorkersGauge.Add(1)
		pl.runWorker(t)
		busyWorkersGauge.Add(-1)
		if pl.remain.Add(-1) == 0 {
			pl.doneCh <- struct{}{}
		}
	}
}

// capturePanic records the first worker panic; the dispatcher
// re-raises it after the region barrier. panicVal is published by the
// CAS (atomics are sequentially consistent) and read only after the
// doneCh handshake, so the unguarded field write is race-free.
func (pl *Pool) capturePanic() {
	if r := recover(); r != nil {
		if pl.hasPanic.CompareAndSwap(false, true) {
			pl.panicVal = r
		}
	}
}

func (pl *Pool) runWorker(t int) {
	defer pl.capturePanic()
	switch pl.mode {
	case regionStatic, regionOffsets, regionOffsetsWorker:
		var lo, hi int
		if pl.mode == regionStatic {
			lo, hi = t*pl.n/pl.active, (t+1)*pl.n/pl.active
		} else {
			lo, hi = pl.offsets[t], pl.offsets[t+1]
		}
		switch {
		case lo >= hi:
		case pl.mode == regionOffsetsWorker:
			runChunkedWorker(pl.done, t, lo, hi, pl.chunk, pl.bodyW)
		case pl.done == nil:
			pl.body(lo, hi)
		default:
			runChunked(pl.done, lo, hi, pl.chunk, pl.body)
		}
	case regionDynamic, regionDynamicWorker:
		step := pl.chunk
		for {
			lo := int(pl.next.Add(int64(step))) - step
			if lo >= pl.n {
				return
			}
			hi := lo + step
			if hi > pl.n {
				hi = pl.n
			}
			if pl.mode == regionDynamicWorker {
				pl.bodyW(t, lo, hi)
			} else {
				pl.body(lo, hi)
			}
		}
	case regionReduce:
		lo := t * pl.n / pl.active
		hi := (t + 1) * pl.n / pl.active
		if lo < hi {
			pl.partials[t] = pl.fold(lo, hi)
		}
	case regionTasks:
		for {
			if pl.done != nil {
				select {
				case <-pl.done:
					return
				default:
				}
			}
			i := int(pl.next.Add(1)) - 1
			if i >= pl.n {
				return
			}
			pl.tasks[i](pl.chunk)
		}
	}
}

// tryAcquire takes the dispatch lock without blocking. It fails when
// the pool is occupied (nested or concurrent dispatch) or closed; the
// caller then uses the spawning fallback.
func (pl *Pool) tryAcquire() bool {
	if !pl.mu.TryLock() {
		return false
	}
	if pl.closed {
		pl.mu.Unlock()
		return false
	}
	return true
}

// dispatch wakes workers 0..active-1, waits for the region barrier,
// releases mu, and re-raises any worker panic. The caller holds mu and
// has filled the descriptor fields.
func (pl *Pool) dispatch(active int) {
	pl.hasPanic.Store(false)
	pl.panicVal = nil
	pl.next.Store(0)
	pl.active = active
	pl.remain.Store(int32(active))
	for t := 0; t < active; t++ {
		pl.wake[t] <- struct{}{}
	}
	<-pl.doneCh
	poolRegionsCount.Add(1)
	had := pl.hasPanic.Load()
	var pv interface{}
	if had {
		pv = pl.panicVal
	}
	pl.body, pl.bodyW, pl.fold, pl.tasks, pl.offsets, pl.done = nil, nil, nil, nil, nil, nil
	pl.mu.Unlock()
	if had {
		panic(fmt.Sprintf("parallel: worker panic: %v", pv))
	}
}

// clamp resolves a requested worker count against the pool size.
func (pl *Pool) clamp(p int) int {
	p = Threads(p)
	if p > pl.size {
		p = pl.size
	}
	return p
}

// ForStatic is ForStatic dispatched on the pool. Partitioning is
// identical to the free function for the same worker count, so results
// are bit-identical either way.
func (pl *Pool) ForStatic(n, p int, body func(lo, hi int)) {
	p = pl.clamp(p)
	if n <= 0 {
		return
	}
	if p == 1 || n == 1 {
		body(0, n)
		return
	}
	if p > n {
		p = n
	}
	if !pl.tryAcquire() {
		forStaticSpawn(n, p, body)
		return
	}
	pl.mode = regionStatic
	pl.n = n
	pl.chunk = 0
	pl.body = body
	pl.done = nil
	pl.dispatch(p)
}

// ForStaticCtx is ForStaticCtx dispatched on the pool.
func (pl *Pool) ForStaticCtx(ctx context.Context, n, p, chunk int, body func(lo, hi int)) error {
	if !cancellable(ctx) {
		pl.ForStatic(n, p, body)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p = pl.clamp(p)
	if n <= 0 {
		return nil
	}
	if p > n {
		p = n
	}
	if !pl.tryAcquire() {
		return forStaticCtxSpawn(ctx, n, p, chunk, body)
	}
	pl.mode = regionStatic
	pl.n = n
	pl.chunk = chunk
	pl.body = body
	pl.done = ctx.Done()
	pl.dispatch(p)
	return ctx.Err()
}

// ForDynamic is ForDynamic dispatched on the pool.
func (pl *Pool) ForDynamic(n, p, chunk int, body func(lo, hi int)) {
	p = pl.clamp(p)
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if p == 1 || n <= chunk {
		body(0, n)
		return
	}
	if mw := (n + chunk - 1) / chunk; p > mw {
		p = mw
	}
	if !pl.tryAcquire() {
		forDynamicSpawn(n, p, chunk, body)
		return
	}
	pl.mode = regionDynamic
	pl.n = n
	pl.chunk = chunk
	pl.body = body
	pl.done = nil
	pl.dispatch(p)
}

// ForDynamicWorker is ForDynamicWorker dispatched on the pool. Worker
// ids are in [0, workers) with workers == PlannedWorkers(n, p', chunk)
// where p' is p clamped to the pool size.
func (pl *Pool) ForDynamicWorker(n, p, chunk int, body func(worker, lo, hi int)) (workers int) {
	p = pl.clamp(p)
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if p == 1 || n <= chunk {
		body(0, 0, n)
		return 1
	}
	if mw := (n + chunk - 1) / chunk; p > mw {
		p = mw
	}
	if !pl.tryAcquire() {
		return forDynamicWorkerSpawn(n, p, chunk, body)
	}
	pl.mode = regionDynamicWorker
	pl.n = n
	pl.chunk = chunk
	pl.bodyW = body
	pl.done = nil
	pl.dispatch(p)
	return p
}

// ForOffsets runs body over the precomputed partition boundaries
// (offsets as produced by BalancedOffsets: part k is
// [offsets[k], offsets[k+1])), one part per pool worker. Partitions
// with more parts than pool workers fall back to spawning.
func (pl *Pool) ForOffsets(offsets []int, body func(lo, hi int)) {
	parts := len(offsets) - 1
	if parts <= 0 || offsets[parts] <= offsets[0] {
		return
	}
	if parts == 1 {
		body(offsets[0], offsets[1])
		return
	}
	if parts > pl.size || !pl.tryAcquire() {
		forOffsetsSpawn(offsets, body)
		return
	}
	pl.mode = regionOffsets
	pl.chunk = 0
	pl.offsets = offsets
	pl.body = body
	pl.done = nil
	pl.dispatch(parts)
}

// ForOffsetsCtx is ForOffsets with cooperative cancellation: each part
// is processed in sub-chunks of size chunk (<= 0 selects 8 sub-chunks
// per part) with a context poll between them.
func (pl *Pool) ForOffsetsCtx(ctx context.Context, offsets []int, chunk int, body func(lo, hi int)) error {
	if !cancellable(ctx) {
		pl.ForOffsets(offsets, body)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	parts := len(offsets) - 1
	if parts <= 0 || offsets[parts] <= offsets[0] {
		return nil
	}
	if parts > pl.size || !pl.tryAcquire() {
		return forOffsetsCtxSpawn(ctx, offsets, chunk, body)
	}
	pl.mode = regionOffsets
	pl.chunk = chunk
	pl.offsets = offsets
	pl.body = body
	pl.done = ctx.Done()
	pl.dispatch(parts)
	return ctx.Err()
}

// ForOffsetsWorkerCtx is ForOffsetsCtx with the part index exposed as
// the worker id, for per-worker scratch: part k always runs with
// worker id k, on the pool and on the spawning fallback alike, so
// scratch selection is deterministic. A cancellable ctx is polled
// between sub-chunks of chunk indices, as in ForOffsetsCtx; one that
// is already done runs no chunk.
func (pl *Pool) ForOffsetsWorkerCtx(ctx context.Context, offsets []int, chunk int, body func(worker, lo, hi int)) error {
	var done <-chan struct{}
	if cancellable(ctx) {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	parts := len(offsets) - 1
	if parts <= 0 || offsets[parts] <= offsets[0] {
		return nil
	}
	switch {
	case parts == 1:
		runChunkedWorker(done, 0, offsets[0], offsets[1], chunk, body)
	case parts > pl.size || !pl.tryAcquire():
		forOffsetsWorkerCtxSpawn(done, offsets, chunk, body)
	default:
		pl.mode = regionOffsetsWorker
		pl.chunk = chunk
		pl.offsets = offsets
		pl.bodyW = body
		pl.done = done
		pl.dispatch(parts)
	}
	if done == nil {
		return nil
	}
	return ctx.Err()
}

// Reduce is ReduceFloat64 dispatched on the pool, using the pool's
// preallocated partials so the steady state allocates nothing. The
// partition and the combine order match the free function exactly, so
// the floating-point result is bit-identical for a given worker count.
func (pl *Pool) Reduce(n, p int, chunkFold func(lo, hi int) float64, combine func(a, b float64) float64, init float64) float64 {
	p = pl.clamp(p)
	if n <= 0 {
		return init
	}
	if p == 1 {
		return combine(init, chunkFold(0, n))
	}
	if p > n {
		p = n
	}
	if !pl.tryAcquire() {
		return reduceSpawn(n, p, chunkFold, combine, init)
	}
	for t := 0; t < p; t++ {
		pl.partials[t] = 0
	}
	pl.mode = regionReduce
	pl.n = n
	pl.fold = chunkFold
	pl.done = nil
	pl.dispatch(p)
	acc := init
	for _, v := range pl.partials[:p] {
		acc = combine(acc, v)
	}
	return acc
}

// Tasks is Tasks dispatched on the pool: the task functions run on the
// pool's workers with at most min(p, len(tasks)) in flight, each
// receiving the nested thread budget p/concurrency (at least 1), the
// same budget the free function hands out. Task start order is the
// slice order; completion order is not defined (identical to Tasks).
// The dispatch itself is allocation-free, which is what keeps the
// solvers' batched rounding step off the per-iteration allocation
// budget. Nested parallel regions inside a task cannot use this pool
// (it is occupied) and fall back to the shared pool or spawning.
func (pl *Pool) Tasks(p int, tasks []func(threads int)) {
	p = pl.clamp(p)
	n := len(tasks)
	if n == 0 {
		return
	}
	if n == 1 {
		tasks[0](p)
		return
	}
	conc := p
	if conc > n {
		conc = n
	}
	per := p / conc
	if per < 1 {
		per = 1
	}
	if !pl.tryAcquire() {
		Tasks(p, tasks)
		return
	}
	pl.mode = regionTasks
	pl.n = n
	pl.chunk = per
	pl.tasks = tasks
	pl.done = nil
	pl.dispatch(conc)
}

// TasksCtx is Tasks with cooperative cancellation: workers stop picking
// up new tasks once ctx is cancelled (tasks already running finish),
// matching the free TasksCtx semantics.
func (pl *Pool) TasksCtx(ctx context.Context, p int, tasks []func(threads int)) error {
	if !cancellable(ctx) {
		pl.Tasks(p, tasks)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p = pl.clamp(p)
	n := len(tasks)
	if n == 0 {
		return nil
	}
	if n == 1 {
		tasks[0](p)
		return ctx.Err()
	}
	conc := p
	if conc > n {
		conc = n
	}
	per := p / conc
	if per < 1 {
		per = 1
	}
	if !pl.tryAcquire() {
		return TasksCtx(ctx, p, tasks)
	}
	pl.mode = regionTasks
	pl.n = n
	pl.chunk = per
	pl.tasks = tasks
	pl.done = ctx.Done()
	pl.dispatch(conc)
	return ctx.Err()
}

// Scheduler-health counters (exported via Stats for the daemon's
// /metrics and expvar endpoints).
var (
	poolRegionsCount  atomic.Int64
	spawnRegionsCount atomic.Int64
	sharedBusyCount   atomic.Int64
	busyWorkersGauge  atomic.Int64
	poolWorkersGauge  atomic.Int64
)

// SchedStats is a snapshot of the package's scheduler-health counters.
type SchedStats struct {
	// PoolWorkers is the number of parked pool workers currently alive
	// (shared pool plus any open solver-run pools).
	PoolWorkers int64 `json:"pool_workers"`
	// WorkersBusy is the number of pool workers executing a region
	// right now.
	WorkersBusy int64 `json:"workers_busy"`
	// PoolRegions counts parallel regions dispatched on a pool.
	PoolRegions int64 `json:"pool_regions"`
	// SpawnRegions counts regions that fell back to per-call goroutine
	// spawning (pool busy, oversized request, or pool closed).
	SpawnRegions int64 `json:"spawn_regions"`
	// SharedBusyFallbacks counts free-function calls that found the
	// shared pool occupied and spawned instead.
	SharedBusyFallbacks int64 `json:"shared_busy_fallbacks"`
}

// Stats returns a snapshot of the scheduler-health counters.
func Stats() SchedStats {
	return SchedStats{
		PoolWorkers:         poolWorkersGauge.Load(),
		WorkersBusy:         busyWorkersGauge.Load(),
		PoolRegions:         poolRegionsCount.Load(),
		SpawnRegions:        spawnRegionsCount.Load(),
		SharedBusyFallbacks: sharedBusyCount.Load(),
	}
}

// sharedMinWorkers floors the shared pool size so free-function calls
// with p above GOMAXPROCS (oversubscription experiments, scaling
// benches on small hosts) still dispatch on the pool. Parked workers
// cost only their stacks; correctness never depends on the floor
// because oversized requests fall back to spawning.
const sharedMinWorkers = 8

var (
	sharedOnce sync.Once
	sharedPool *Pool
	sharedBusy atomic.Bool
)

// acquireShared returns the process-wide shared pool reserved for one
// region dispatch, or nil when the caller should spawn instead: the
// pool is busy with another region (concurrent free-function calls, or
// a nested call from inside a pool-run body) or p exceeds its size.
// The caller must releaseShared after the region when non-nil.
func acquireShared(p int) *Pool {
	sharedOnce.Do(func() {
		size := runtime.GOMAXPROCS(0)
		if size < sharedMinWorkers {
			size = sharedMinWorkers
		}
		sharedPool = NewPool(size)
	})
	if p > sharedPool.size {
		return nil
	}
	if !sharedBusy.CompareAndSwap(false, true) {
		sharedBusyCount.Add(1)
		return nil
	}
	return sharedPool
}

func releaseShared() { sharedBusy.Store(false) }
