package core

import (
	"context"

	"netalignmc/internal/parallel"
)

// partitionSet holds the balanced per-worker range boundaries of one
// (problem, worker count) pair, cached in the workspace so a solve
// derives them once and every iteration reuses them. The paper's
// S-indexed loops are the motivating case: "the non-zero distribution
// in S is highly irregular and imbalanced", so equal index ranges leave
// one worker with the heavy rows while chunked dynamic scheduling pays
// an atomic fetch-and-add per chunk. A cost-balanced static partition
// gets the even split without the shared counter.
type partitionSet struct {
	prob    *Problem
	workers int
	sRows   []int // rows of S (= edges of L), cost = row nnz
	lRows   []int // V_A vertices of L, cost = degree
	lCols   []int // V_B vertices of L, cost = degree
}

// ensureParts returns the workspace's partition set for (p, workers),
// rebuilding the offsets only when the problem or worker count
// changed.
func (ws *Workspace) ensureParts(p *Problem, workers int) *partitionSet {
	ps := &ws.parts
	if ps.prob != p || ps.workers != workers {
		ps.prob = p
		ps.workers = workers
		ps.sRows = parallel.BalancedOffsetsFromPtr(p.S.Ptr, workers, ps.sRows)
		ps.lRows = parallel.BalancedOffsetsFromPtr(p.L.RowPtr, workers, ps.lRows)
		ps.lCols = parallel.BalancedOffsetsFromPtr(p.L.ColPtr, workers, ps.lCols)
	}
	return ps
}

// exec routes the solvers' parallel regions down one of two paths:
//
//   - serial (one thread): every region runs inline on the calling
//     goroutine, and the context-aware sweeps poll ctx every chunk
//     indices. No pool, no goroutine, no shared-pool handoff.
//   - pooled (more than one thread): every region dispatches on the
//     run's own persistent worker pool, the S-row and L-vertex loops
//     over the nnz- and degree-balanced partitions cached in the
//     workspace.
//
// Every loop it dispatches writes disjoint indices elementwise, so the
// split cannot change the solver output. Reductions are not routed
// here — they keep the free functions' fixed equal-split partition so
// their float combine order is stable.
type exec struct {
	pool    *parallel.Pool // nil on the serial path
	threads int
	chunk   int
	parts   *partitionSet
}

// newExec prepares the run's dispatcher: for more than one thread it
// derives (or reuses) the balanced offsets and starts the per-run
// worker pool. The caller must close the exec when the solve ends.
func newExec(p *Problem, ws *Workspace, threads, chunk int) *exec {
	e := &exec{threads: parallel.Threads(threads), chunk: chunk}
	if e.threads > 1 {
		e.parts = ws.ensureParts(p, e.threads)
		e.pool = parallel.NewPool(e.threads)
	}
	return e
}

// close parks and releases the run's pool workers.
func (e *exec) close() {
	if e.pool != nil {
		e.pool.Close()
	}
}

// inline runs body over [0, n) in one call on the caller's goroutine.
func inline(n int, body func(lo, hi int)) {
	if n > 0 {
		body(0, n)
	}
}

// inlineCtx runs body over [0, n) on the caller's goroutine in pieces
// of e.chunk indices, polling ctx before each piece. A context that
// can never be cancelled runs the whole range in one call.
func (e *exec) inlineCtx(ctx context.Context, n int, body func(lo, hi int)) {
	done := ctx.Done()
	if done == nil {
		inline(n, body)
		return
	}
	for lo := 0; lo < n; lo += e.chunk {
		select {
		case <-done:
			return
		default:
		}
		body(lo, min(lo+e.chunk, n))
	}
}

// forNNZ runs an elementwise sweep over the nonzero index space (or any
// uniform-cost index space). Uniform cost makes the equal static split
// the balanced one.
func (e *exec) forNNZ(ctx context.Context, n int, body func(lo, hi int)) {
	if e.pool == nil {
		e.inlineCtx(ctx, n, body)
		return
	}
	e.pool.ForStaticCtx(ctx, n, e.threads, e.chunk, body)
}

// forSRows runs body over the rows of S (the per-index cost is the row
// nonzero count), using the cached nnz-balanced row partition.
func (e *exec) forSRows(ctx context.Context, n int, body func(lo, hi int)) {
	if e.pool == nil {
		e.inlineCtx(ctx, n, body)
		return
	}
	e.pool.ForOffsetsCtx(ctx, e.parts.sRows, e.chunk, body)
}

// forSRowsWorker is forSRows with a worker id for per-worker scratch.
// Scratch must be sized by rowWorkers, the single source of truth for
// how many distinct ids the body can observe.
func (e *exec) forSRowsWorker(ctx context.Context, n int, body func(worker, lo, hi int)) {
	if e.pool == nil {
		e.inlineCtx(ctx, n, func(lo, hi int) { body(0, lo, hi) })
		return
	}
	e.pool.ForOffsetsWorkerCtx(ctx, e.parts.sRows, e.chunk, body)
}

// rowWorkers reports how many distinct worker ids forSRowsWorker can
// hand out: the number callers must size per-worker scratch by.
func (e *exec) rowWorkers() int {
	if e.pool == nil {
		return 1
	}
	return e.parts.workers
}

// forEdges runs an elementwise sweep over the edges of L. The cost is
// uniform, so the equal static split is already balanced.
func (e *exec) forEdges(n int, body func(lo, hi int)) {
	if e.pool == nil {
		inline(n, body)
		return
	}
	e.pool.ForStatic(n, e.threads, body)
}

// forLRows runs body over the V_A vertices of L (cost = degree) with
// the cached degree-balanced partition.
func (e *exec) forLRows(n int, body func(lo, hi int)) {
	if e.pool == nil {
		inline(n, body)
		return
	}
	e.pool.ForOffsets(e.parts.lRows, body)
}

// forLCols runs body over the V_B vertices of L (cost = degree).
func (e *exec) forLCols(n int, body func(lo, hi int)) {
	if e.pool == nil {
		inline(n, body)
		return
	}
	e.pool.ForOffsets(e.parts.lCols, body)
}

// runTasksCtx runs coarse-grained tasks (BP's batched roundings): one
// after another on the serial path, on the run pool otherwise, each
// task receiving its share of the thread budget. Tasks not yet started
// when ctx ends are skipped.
func (e *exec) runTasksCtx(ctx context.Context, tasks []func(threads int)) error {
	if e.pool == nil {
		for _, task := range tasks {
			if err := ctx.Err(); err != nil {
				return err
			}
			task(1)
		}
		return nil
	}
	return e.pool.TasksCtx(ctx, e.threads, tasks)
}
