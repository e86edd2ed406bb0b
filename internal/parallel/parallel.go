// Package parallel provides OpenMP-style loop parallelism for the
// netalignmc kernels.
//
// The SC 2012 paper parallelizes every step of the alignment iterations
// with OpenMP "parallel for" loops, using a dynamic schedule with a
// chunk size of 1000 for the loops indexed by the (highly imbalanced)
// nonzeros of the overlap matrix S, and a static schedule elsewhere.
// This package provides those constructs on top of goroutines:
//
//   - ForStatic partitions [0,n) into one contiguous block per worker,
//     mirroring OpenMP's schedule(static).
//   - ForDynamic hands out fixed-size chunks from an atomic counter,
//     mirroring OpenMP's schedule(dynamic, chunk); the matchers use it.
//   - ForOffsets splits the index space by precomputed boundaries,
//     typically of near-equal cumulative cost (BalancedOffsets). The
//     solvers use this nnz-balanced partitioning in place of the
//     paper's dynamic schedule for the power-law-skewed S sweeps.
//
// All loop bodies receive index *ranges* ([lo,hi)) rather than single
// indices so the per-index dispatch overhead is paid once per chunk,
// which matters for the very short bodies in the sparse kernels.
//
// Execution happens on persistent worker pools (Pool), mirroring an
// OpenMP runtime's thread team: the solvers create one pool per run,
// and the free functions below dispatch on a process-wide shared pool
// that is started lazily on first use. Dispatching on a parked pool is
// allocation-free (descriptor writes plus channel wakes), which is
// what keeps the solver hot loops at zero allocations per iteration.
// When a pool is unavailable — the shared pool is busy with another
// region, the request wants more workers than the pool has, or a body
// nests another parallel region — the constructs fall back to the
// original spawn-per-call path, which stays correct (goroutine
// creation is tens of nanoseconds) and is counted in Stats for
// observability.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// panicBox captures the first panic raised by any worker so the
// parallel construct can re-raise it on the caller's goroutine instead
// of crashing the process from a worker. (A panicking goroutine with
// no recover kills the whole program; library loops must not do that.)
type panicBox struct {
	once sync.Once
	val  interface{}
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.once.Do(func() { b.val = r })
	}
}

func (b *panicBox) rethrow() {
	if b.val != nil {
		panic(fmt.Sprintf("parallel: worker panic: %v", b.val))
	}
}

// DefaultChunk is the dynamic-schedule chunk size used for all loops
// indexed by the nonzeros of S. The paper reports that, after
// experimentation, a chunk size of 1000 produced the best performance
// for those imbalanced loops; we adopt it as the default.
const DefaultChunk = 1000

// Threads returns the number of workers a parallel loop will use when
// the caller passes p <= 0: the current GOMAXPROCS setting.
func Threads(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// ForStatic runs body over [0, n) partitioned into p contiguous
// blocks, one per worker (OpenMP schedule(static)). If p <= 0 the
// GOMAXPROCS value is used. body must be safe for concurrent
// invocation on disjoint ranges. ForStatic returns after every worker
// has finished (the loop-end barrier).
func ForStatic(n, p int, body func(lo, hi int)) {
	p = Threads(p)
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
	if sp := acquireShared(p); sp != nil {
		defer releaseShared()
		sp.ForStatic(n, p, body)
		return
	}
	forStaticSpawn(n, p, body)
}

func forStaticSpawn(n, p int, body func(lo, hi int)) {
	spawnRegionsCount.Add(1)
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for t := 0; t < p; t++ {
		lo := t * n / p
		hi := (t + 1) * n / p
		go func(lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			if lo < hi {
				body(lo, hi)
			}
		}(lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}

// ForDynamic runs body over [0, n) in chunks of size chunk handed out
// from a shared atomic counter (OpenMP schedule(dynamic, chunk)). It
// is the right policy for loops with imbalanced per-index cost, such
// as anything indexed by the rows or nonzeros of S. If chunk <= 0,
// DefaultChunk is used. If p <= 0 the GOMAXPROCS value is used.
func ForDynamic(n, p, chunk int, body func(lo, hi int)) {
	p = Threads(p)
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
	if sp := acquireShared(p); sp != nil {
		defer releaseShared()
		sp.ForDynamic(n, p, chunk, body)
		return
	}
	forDynamicSpawn(n, p, chunk, body)
}

func forDynamicSpawn(n, p, chunk int, body func(lo, hi int)) {
	spawnRegionsCount.Add(1)
	// step is assigned exactly once so the goroutines capture it by
	// value; capturing the reassigned parameter directly would move it
	// to the heap and cost an allocation even on the serial fast path.
	step := chunk
	var pb panicBox
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for t := 0; t < p; t++ {
		go func() {
			defer wg.Done()
			defer pb.capture()
			for {
				lo := int(next.Add(int64(step))) - step
				if lo >= n {
					return
				}
				hi := lo + step
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
}

// ForDynamicWorker is ForDynamic with the worker index exposed to the
// body, so callers can maintain per-worker preallocated scratch (the
// paper preallocates "the maximum memory required for p threads to run
// matching problems on the rows of S" outside the iteration; the
// worker index selects the scratch instance race-free). It returns the
// number of workers actually used; bodies receive worker ids in
// [0, workers), and the count equals PlannedWorkers(n, p, chunk) so
// scratch can be sized before the call.
func ForDynamicWorker(n, p, chunk int, body func(worker, lo, hi int)) (workers int) {
	p = Threads(p)
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
	if sp := acquireShared(p); sp != nil {
		defer releaseShared()
		return sp.ForDynamicWorker(n, p, chunk, body)
	}
	return forDynamicWorkerSpawn(n, p, chunk, body)
}

func forDynamicWorkerSpawn(n, p, chunk int, body func(worker, lo, hi int)) (workers int) {
	spawnRegionsCount.Add(1)
	step := chunk // single assignment: captured by value, keeps chunk off the heap
	var pb panicBox
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for t := 0; t < p; t++ {
		go func(worker int) {
			defer wg.Done()
			defer pb.capture()
			for {
				lo := int(next.Add(int64(step))) - step
				if lo >= n {
					return
				}
				hi := lo + step
				if hi > n {
					hi = n
				}
				body(worker, lo, hi)
			}
		}(t)
	}
	wg.Wait()
	pb.rethrow()
	return p
}

// Tasks runs the given task functions concurrently on at most p
// workers and waits for all of them (the analogue of an OpenMP task
// group, used for batched rounding where each task is one matching
// problem). Tasks themselves may run nested parallel loops; the worker
// count available to each task is reported to it so nested loops can
// divide threads the way the paper describes (batch of r roundings
// with T threads gives each task max(1, T/r) threads). Tasks always
// spawns (it is coarse-grained and its tasks nest parallel regions, so
// parking it on a pool would only serialize the nested dispatch).
func Tasks(p int, tasks []func(threads int)) {
	p = Threads(p)
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
	sem := make(chan struct{}, conc)
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(n)
	for _, task := range tasks {
		task := task
		go func() {
			defer wg.Done()
			defer pb.capture()
			sem <- struct{}{}
			defer func() { <-sem }()
			task(per)
		}()
	}
	wg.Wait()
	pb.rethrow()
}

// The context-aware variants (Pool.ForStaticCtx, Pool.ForOffsetsCtx,
// TasksCtx, Pool.TasksCtx) mirror the plain constructs but poll ctx so
// a deadline or cancellation stops the loop early: the loops split
// each worker's block into sub-chunks and check between them, and the
// task runners check before starting each task. A context that can
// never be cancelled (nil, or Done() == nil such as
// context.Background()) delegates to the plain construct with zero
// per-chunk overhead — this is what the non-context solver entry
// points pass, so the hot paths are unchanged. On cancellation the
// variants return ctx.Err(); already started chunk bodies run to
// completion (bodies are never interrupted mid-range), so the caller
// sees a loop that has covered an unspecified subset of [0, n) and
// must discard or ignore the partial result.

// cancellable reports whether ctx can ever be cancelled.
func cancellable(ctx context.Context) bool {
	return ctx != nil && ctx.Done() != nil
}

// runChunked runs body over [lo, hi) in sub-chunks of size chunk (<= 0
// selects 8 sub-chunks), polling done before each and returning once
// it has fired.
func runChunked(done <-chan struct{}, lo, hi, chunk int, body func(lo, hi int)) {
	step := chunk
	if step <= 0 {
		step = (hi - lo + 7) / 8
	}
	if step < 1 {
		step = 1
	}
	for lo < hi {
		select {
		case <-done:
			return
		default:
		}
		end := min(lo+step, hi)
		body(lo, end)
		lo = end
	}
}

// runChunkedWorker is runChunked for a body that takes a worker id. A
// nil done runs [lo, hi) in one call.
func runChunkedWorker(done <-chan struct{}, worker, lo, hi, chunk int, body func(worker, lo, hi int)) {
	if done == nil {
		body(worker, lo, hi)
		return
	}
	runChunked(done, lo, hi, chunk, func(lo, hi int) { body(worker, lo, hi) })
}

func forStaticCtxSpawn(ctx context.Context, n, p, chunk int, body func(lo, hi int)) error {
	spawnRegionsCount.Add(1)
	done := ctx.Done()
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for t := 0; t < p; t++ {
		lo := t * n / p
		hi := (t + 1) * n / p
		go func(lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			runChunked(done, lo, hi, chunk, body)
		}(lo, hi)
	}
	wg.Wait()
	pb.rethrow()
	return ctx.Err()
}

// TasksCtx is Tasks with cooperative cancellation: tasks not yet
// started when the context is cancelled are skipped (running tasks
// finish). It returns ctx.Err() when the context ended the run early.
func TasksCtx(ctx context.Context, p int, tasks []func(threads int)) error {
	if !cancellable(ctx) {
		Tasks(p, tasks)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	done := ctx.Done()
	wrapped := make([]func(int), len(tasks))
	for i, task := range tasks {
		task := task
		wrapped[i] = func(threads int) {
			select {
			case <-done:
				return
			default:
			}
			task(threads)
		}
	}
	Tasks(p, wrapped)
	return ctx.Err()
}

// ReduceFloat64 computes a parallel reduction of fn over [0, n): each
// worker folds its chunk into a private partial using the caller's
// chunk reducer, and the partials are combined with combine (in worker
// order, so the result is deterministic for a given worker count). It
// is used for objective evaluations (dot products, overlap counts)
// that the paper folds into its parallel loops.
func ReduceFloat64(n, p int, chunkFold func(lo, hi int) float64, combine func(a, b float64) float64, init float64) float64 {
	p = Threads(p)
	if n <= 0 {
		return init
	}
	if p == 1 {
		return combine(init, chunkFold(0, n))
	}
	if p > n {
		p = n
	}
	if sp := acquireShared(p); sp != nil {
		defer releaseShared()
		return sp.Reduce(n, p, chunkFold, combine, init)
	}
	return reduceSpawn(n, p, chunkFold, combine, init)
}

func reduceSpawn(n, p int, chunkFold func(lo, hi int) float64, combine func(a, b float64) float64, init float64) float64 {
	spawnRegionsCount.Add(1)
	partials := make([]float64, p)
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(p)
	for t := 0; t < p; t++ {
		lo := t * n / p
		hi := (t + 1) * n / p
		go func(t, lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			if lo < hi {
				partials[t] = chunkFold(lo, hi)
			}
		}(t, lo, hi)
	}
	wg.Wait()
	pb.rethrow()
	acc := init
	for _, v := range partials {
		acc = combine(acc, v)
	}
	return acc
}

// SumFloat64 is ReduceFloat64 specialized to addition with a zero
// initial value.
func SumFloat64(n, p int, chunkFold func(lo, hi int) float64) float64 {
	return ReduceFloat64(n, p, chunkFold, func(a, b float64) float64 { return a + b }, 0)
}
