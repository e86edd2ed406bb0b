package core

import (
	"context"
	"sync/atomic"

	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
	"netalignmc/internal/stats"
)

// BP step names, used by the Figure 7 per-step scaling study.
const (
	BPStepBoundF   = "boundF"   // Step 1: F = bound_{0,β}(βS + S^(k)T)
	BPStepComputeD = "computeD" // Step 2: d = αw + Fe
	BPStepOthermax = "othermax" // Step 3: othermax row/col updates
	BPStepUpdateS  = "updateS"  // Step 4: S^(k) = diag(y+z−d)·S − F
	BPStepDamping  = "damping"  // Step 5: geometric damping
	BPStepMatch    = "match"    // Step 6: rounding (possibly batched)
)

// Damping selects how BP iterates are blended with their predecessors
// (Section III-B: "We only describe one type of damping. See [13] for
// other variations.").
type Damping int

const (
	// DampPower blends with weight γ^k at iteration k (the paper's
	// choice; the blend weight decays so the iterates converge).
	DampPower Damping = iota
	// DampConstant blends with a fixed weight γ every iteration.
	DampConstant
	// DampNone applies no damping; the messages may oscillate, which
	// is why rounding every iterate and keeping the best still works.
	DampNone
)

// String returns the damping scheme name.
func (d Damping) String() string {
	switch d {
	case DampConstant:
		return "constant"
	case DampNone:
		return "none"
	default:
		return "power"
	}
}

// BPOptions configures the belief-propagation method (Listing 2).
type BPOptions struct {
	// Iterations is n_iter; the paper's scaling runs use 400 and note
	// 500–1000 is the useful maximum.
	Iterations int
	// Gamma is the damping base; under DampPower the iterates are
	// blended with weight γ^k at iteration k. The paper's experiments
	// use γ = 0.99.
	Gamma float64
	// Damp selects the damping scheme (default DampPower, the paper's).
	Damp Damping
	// Batch is the rounding batch size r of Section IV-C: iterate
	// vectors are collected and rounded together as concurrent tasks;
	// 1 rounds immediately (BP(batch=1)). Each iteration produces two
	// vectors (y and z), so a batch of r flushes every r/2 iterations.
	Batch int
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Chunk is the context-poll granularity of the S and edge sweeps,
	// in indices (0 = 1000, the paper's dynamic-schedule chunk). The
	// sweeps themselves split their index spaces by nnz-balanced
	// partitions (see DESIGN.md §4), so Chunk never changes the output.
	Chunk int
	// Matcher declaratively selects the rounding matcher (the zero
	// value is exact matching; {Name: "approx"} gives the paper's
	// substitution). Unlike MR, BP's iterate sequence is independent of
	// this choice — rounding only evaluates quality (Section VII). The
	// solver builds one reusable matcher per batch slot from it, which
	// is what makes steady-state rounding allocation-free.
	Matcher matching.MatcherSpec
	// Workspace supplies reusable solver buffers; nil borrows a spare
	// one for the solve from a process-wide pool. Handing the same
	// workspace to successive solves on same-shaped problems removes
	// the per-solve buffer allocations too. A workspace serves one
	// solve at a time.
	Workspace *Workspace
	// SkipFinalExact disables the final exact rounding of the best
	// heuristic (used by the scaling studies).
	SkipFinalExact bool
	// Timer, when non-nil, accumulates per-step wall time.
	Timer *stats.StepTimer
	// Trace records every rounded objective.
	Trace bool
	// WarmY and WarmZ, when non-nil, initialize the message vectors
	// instead of zeros. The steering workflow re-solves a problem
	// after editing L; transferring the previous solve's messages (see
	// TransferEdgeVector) lets the new run start near the old fixed
	// point. Lengths must equal |E_L|. Ignored when Resume is set.
	WarmY, WarmZ []float64
	// Observer, when non-nil, is called after each iteration's damping
	// with the iteration number and the damped message vectors (which
	// alias internal buffers — copy before retaining). It exists for
	// message inspection and for the golden tests that pin the
	// listing's arithmetic.
	Observer func(iter int, y, z []float64)

	// Resume, when non-nil, restores the solver state from a
	// checkpoint of a previous run on the same problem with the same
	// options; the run continues at iteration Resume.Iter+1 and is bit
	// identical to the uninterrupted run. The checkpoint is validated
	// against the problem before any state is copied.
	Resume *Checkpoint
	// CheckpointEvery, when positive with CheckpointFunc set, snapshots
	// the run every that many iterations (pending batched roundings are
	// flushed first so the snapshot's tracker is complete).
	CheckpointEvery int
	// CheckpointFunc receives each snapshot; returning an error stops
	// the run and surfaces through AlignResult.Err.
	CheckpointFunc func(*Checkpoint) error
	// GuardLimit is the numeric guard's message-magnitude explosion
	// threshold: 0 selects the default (1e100), negative disables the
	// guard entirely.
	GuardLimit float64
	// Faults, when non-nil, corrupts step outputs for robustness tests
	// (see internal/faults). Production runs leave it nil.
	Faults FaultInjector
}

func (o *BPOptions) defaults() BPOptions {
	opts := *o
	if opts.Iterations <= 0 {
		opts.Iterations = 100
	}
	if opts.Gamma <= 0 || opts.Gamma >= 1 {
		opts.Gamma = 0.99
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	if opts.Chunk <= 0 {
		opts.Chunk = parallel.DefaultChunk
	}
	return opts
}

// BPAlign runs the belief-propagation message-passing method
// (Listing 2) to completion. Errors from the resilience options (a
// mismatched Resume checkpoint, a failing CheckpointFunc) are reported
// via AlignResult.Err.
//
// Deprecated: BPAlign is a thin wrapper over Problem.Align; new code
// should call Align with Options{Method: MethodBP}.
func (p *Problem) BPAlign(o BPOptions) *AlignResult {
	res, _ := p.Align(context.Background(), Options{Method: MethodBP, BP: o})
	return res
}

// BPAlignCtx runs the belief-propagation method under a context.
//
// Deprecated: BPAlignCtx is a thin wrapper over Problem.Align; new
// code should call Align with Options{Method: MethodBP}.
func (p *Problem) BPAlignCtx(ctx context.Context, o BPOptions) (*AlignResult, error) {
	return p.Align(ctx, Options{Method: MethodBP, BP: o})
}

// bpAlign runs the belief-propagation message-passing method
// (Listing 2) under a context. Messages y, z live on the edges of L;
// the message matrix S^(k) lives on the nonzeros of S. Each iteration
// bounds the overlap messages into F, folds them into the edge
// likelihoods d, applies the othermax exclusion updates, rescales
// S^(k), damps all three with weight γ^k, and rounds the damped y and
// z iterates to matchings whose objectives are tracked; the best
// heuristic is exact-rounded at the end.
//
// Cancelling the context (or hitting its deadline) stops the run
// mid-iteration in bounded time and returns the best matching found so
// far with AlignResult.Stopped set to StopCancelled or StopDeadline.
// The numeric guard checks every iteration's damped messages for
// NaN/Inf and magnitude explosion; a failing iteration is rolled back
// to the last good state with tightened damping, and a recurring
// failure stops the run with StopNumerics and the best valid matching.
// The returned error (also recorded on AlignResult.Err) reports
// resilience-option failures; a cancelled or numerics-stopped run is
// not an error.
//
// All buffers come from the workspace and every kernel closure is
// created once before the loop, so steady-state iterations perform no
// heap allocations: at Threads=1 every region runs inline, and at
// higher thread counts it dispatches on the run's parked worker pool.
func (p *Problem) bpAlign(ctx context.Context, o BPOptions) (*AlignResult, error) {
	opts := o.defaults()
	threads, chunk := opts.Threads, opts.Chunk
	timer := opts.Timer
	nnz := p.S.NNZ()
	mEL := p.L.NumEdges()
	serial := parallel.Threads(threads) == 1

	tr := &Tracker{Trace: opts.Trace}
	guard := newNumericGuard(opts.GuardLimit)

	ws := opts.Workspace
	if ws == nil {
		ws = spareWorkspaces.Get().(*Workspace)
		defer spareWorkspaces.Put(ws)
	}
	ws.ensureBP(mEL, nnz)
	if err := ws.ensureRound(p, opts.Matcher, opts.Batch+1); err != nil {
		res := p.emptyResult()
		res.Err = err
		return res, err
	}
	// The run's parallel-region dispatcher: a persistent worker pool
	// (created once, parked between regions) plus the per-problem
	// nnz-balanced partitions cached in the workspace.
	e := newExec(p, ws, threads, chunk)
	defer e.close()

	y, z := ws.y, ws.z
	yPrev, zPrev := ws.yPrev, ws.zPrev
	sk, skPrev := ws.sk, ws.skPrev
	d, om, om2, f := ws.d, ws.om, ws.om2, ws.f
	zeroFloat64(y, z, yPrev, zPrev, sk, skPrev)
	gammaK := 1.0
	startIter := 1
	if opts.Resume != nil {
		if err := opts.Resume.Validate(p, "bp"); err != nil {
			res := p.emptyResult()
			res.Err = err
			return res, err
		}
		copy(yPrev, opts.Resume.Y)
		copy(zPrev, opts.Resume.Z)
		copy(skPrev, opts.Resume.SK)
		gammaK = opts.Resume.GammaK
		guard.tighten = opts.Resume.Tighten
		if guard.tighten == 0 {
			guard.tighten = 1
		}
		guard.failures = opts.Resume.Failures
		opts.Resume.restoreTracker(p, tr)
		startIter = opts.Resume.Iter + 1
	} else {
		if len(opts.WarmY) == mEL {
			copy(yPrev, opts.WarmY)
		}
		if len(opts.WarmZ) == mEL {
			copy(zPrev, opts.WarmZ)
		}
	}

	// Last-good snapshots for the numeric guard's rollback.
	goodY, goodZ, goodSK := ws.goodY, ws.goodZ, ws.goodSK
	copy(goodY, yPrev)
	copy(goodZ, zPrev)
	copy(goodSK, skPrev)
	goodGammaK := gammaK

	perm := p.SPerm
	beta := p.Beta
	w := p.L.W
	ptr := p.S.Ptr
	alpha := p.Alpha

	// g is the current iteration's damping weight, set before the
	// damping sweeps run; the kernels read it by capture.
	var g float64

	// The kernel closures are hoisted out of the iteration loop: a
	// closure handed to the parallel constructs escapes (the worker
	// goroutines capture it), so creating one per iteration would
	// heap-allocate on the hot path. They capture the slice-header
	// variables, so the post-damping buffer swaps are visible to them.

	// Step 1: F = bound_{0,β}(β·S + S^(k−1)ᵀ). S's stored values are
	// ones, so β·S is β on every entry. The transpose is realized by
	// pulling through the permutation with no intermediate write.
	boundF := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			f[k] = clamp(beta+skPrev[perm[k]], 0, beta)
		}
	}
	// Step 2: d = αw + F·e (row sums of F over S's pattern).
	computeD := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			s := 0.0
			for k := ptr[e]; k < ptr[e+1]; k++ {
				s += f[k]
			}
			d[e] = alpha*w[e] + s
		}
	}
	// Step 3 tail: y = d − othermaxcol(z⁽ᵏ⁻¹⁾), z = d − othermaxrow(y⁽ᵏ⁻¹⁾).
	othermaxEdges := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			y[e] = d[e] - om2[e]
			z[e] = d[e] - om[e]
		}
	}
	// Step 4: S^(k) = diag(y + z − d)·S − F (row rescale minus F),
	// over the rows of S: every entry of row r is y[r]+z[r]−d[r] − F.
	updateS := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			c := y[r] + z[r] - d[r]
			for k := ptr[r]; k < ptr[r+1]; k++ {
				sk[k] = c - f[k]
			}
		}
	}
	// Step 5: damping against the previous iterates. The guard's
	// tighten factor (< 1 after a numeric rollback) is already folded
	// into g so a diverging message sequence moves more slowly.
	dampEdges := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			y[e] = g*y[e] + (1-g)*yPrev[e]
			z[e] = g*z[e] + (1-g)*zPrev[e]
		}
	}
	dampS := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			sk[k] = g*sk[k] + (1-g)*skPrev[k]
		}
	}
	// The othermax scans read yPrev/zPrev through capture so the
	// post-damping swaps stay visible; dispatched over L's vertex sets
	// with the degree-balanced partitions.
	omRowsBody := func(lo, hi int) { othermaxRowsRange(om, yPrev, p.L, lo, hi) }
	omColsBody := func(lo, hi int) { othermaxColsRange(om2, zPrev, p.L, lo, hi) }
	othermaxScan := func() {
		e.forLCols(p.L.NB, omColsBody)
		e.forLRows(p.L.NA, omRowsBody)
	}
	step1 := func() { e.forNNZ(ctx, nnz, boundF) }
	step2 := func() { e.forSRows(ctx, mEL, computeD) }
	step3 := func() {
		othermaxScan()
		e.forEdges(mEL, othermaxEdges)
	}
	step4 := func() { e.forSRows(ctx, mEL, updateS) }
	step5 := func() {
		e.forEdges(mEL, dampEdges)
		e.forNNZ(ctx, nnz, dampS)
	}

	// Pending rounding slots (the batch) and their parallel tasks.
	pendLen := 0
	var numericEvents atomic.Int64

	slotTasks := make([]func(int), opts.Batch+1)
	for i := range slotTasks {
		s := ws.slots[i]
		slotTasks[i] = func(taskThreads int) {
			s.ok = false
			// A corrupted (non-finite) heuristic copy is a numeric
			// fault: skip the rounding — the matcher and objective
			// would only launder the NaN — and let the guard account
			// for it after the flush.
			if !finiteVector(s.heur) {
				numericEvents.Add(1)
				return
			}
			p.roundSlotRun(s, taskThreads)
		}
	}
	flushBody := func() {
		if serial {
			for i := 0; i < pendLen; i++ {
				s := ws.slots[i]
				if !finiteVector(s.heur) {
					numericEvents.Add(1)
					continue
				}
				p.roundSlotRun(s, 1)
				tr.Offer(s.iter, s.obj, &s.res, s.heur)
			}
			pendLen = 0
			return
		}
		// Each task is one matching problem; with T threads and r
		// tasks each matching gets max(1, T/r) threads, the paper's
		// nested-parallelism scheme. Offer the results in batch order
		// after the barrier: task scheduling must not decide objective
		// ties, or the selected matching (and a checkpointed resume)
		// would vary run to run.
		e.runTasksCtx(ctx, slotTasks[:pendLen])
		for i := 0; i < pendLen; i++ {
			s := ws.slots[i]
			if s.ok {
				tr.Offer(s.iter, s.obj, &s.res, s.heur)
			}
		}
		pendLen = 0
	}
	flush := func() {
		if pendLen == 0 {
			return
		}
		timer.Time(BPStepMatch, flushBody)
	}

	stopped := StopMaxIter
	var runErr error
	lastIter := startIter - 1

	iter := startIter
loop:
	for iter <= opts.Iterations {
		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}
		timer.Time(BPStepBoundF, step1)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(BPStepBoundF, iter, f)
		}

		timer.Time(BPStepComputeD, step2)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(BPStepComputeD, iter, d)
		}

		// Step 5's damping weight for this iteration.
		gammaK *= opts.Gamma
		switch opts.Damp {
		case DampConstant:
			g = opts.Gamma
		case DampNone:
			g = 1
		default:
			g = gammaK
		}
		g *= guard.tighten

		timer.Time(BPStepOthermax, step3)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(BPStepOthermax, iter, y)
		}
		timer.Time(BPStepUpdateS, step4)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(BPStepUpdateS, iter, sk)
		}
		timer.Time(BPStepDamping, step5)
		y, yPrev = yPrev, y
		z, zPrev = zPrev, z
		sk, skPrev = skPrev, sk
		// After the swaps, *Prev hold iteration k's damped state.
		if opts.Faults != nil {
			opts.Faults.CorruptVector(BPStepDamping, iter, yPrev)
		}

		// A cancelled step leaves partially written vectors; bail out
		// before the guard or the tracker can look at them.
		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}

		// Numeric guard: one scan over the damped state catches NaN/Inf
		// or explosion introduced by any of steps 1–5 (a bad F entry
		// propagates through d, y/z and S^(k)). On failure, roll back
		// to the last good iterate and retry with tightened damping;
		// stop with StopNumerics when the failure recurs.
		if !guard.ok(threads, yPrev, zPrev, skPrev) {
			if guard.trip() {
				copy(yPrev, goodY)
				copy(zPrev, goodZ)
				copy(skPrev, goodSK)
				gammaK = goodGammaK
				continue
			}
			copy(yPrev, goodY)
			copy(zPrev, goodZ)
			copy(skPrev, goodSK)
			stopped = StopNumerics
			break
		}
		guard.clean()
		copy(goodY, yPrev)
		copy(goodZ, zPrev)
		copy(goodSK, skPrev)
		goodGammaK = gammaK

		if opts.Observer != nil {
			opts.Observer(iter, yPrev, zPrev)
		}

		// Step 6: copy the damped y and z iterates into the next two
		// batch slots; flush when the batch is full.
		sy := ws.slots[pendLen]
		sy.iter = iter
		sy.heur = growFloat64(sy.heur, mEL)
		copy(sy.heur, yPrev)
		pendLen++
		sz := ws.slots[pendLen]
		sz.iter = iter
		sz.heur = growFloat64(sz.heur, mEL)
		copy(sz.heur, zPrev)
		pendLen++
		if opts.Faults != nil {
			opts.Faults.CorruptVector(BPStepMatch, iter, sy.heur)
			opts.Faults.CorruptVector(BPStepMatch, iter, sz.heur)
		}
		if pendLen >= opts.Batch {
			flush()
			// Corrupted heuristics skipped during the flush count as
			// guard failures so a recurring match-step fault escalates
			// to StopNumerics instead of silently dropping roundings.
			for n := numericEvents.Swap(0); n > 0; n-- {
				if !guard.trip() {
					stopped = StopNumerics
					lastIter = iter
					break loop
				}
			}
		}
		lastIter = iter

		if opts.CheckpointEvery > 0 && opts.CheckpointFunc != nil && iter%opts.CheckpointEvery == 0 {
			flush() // the snapshot's tracker must cover every iterate so far
			ck := &Checkpoint{
				Method:   "bp",
				Iter:     iter,
				GammaK:   gammaK,
				Tighten:  guard.tighten,
				Failures: guard.failures,
				Y:        append([]float64(nil), yPrev...),
				Z:        append([]float64(nil), zPrev...),
				SK:       append([]float64(nil), skPrev...),
			}
			ck.fingerprint(p)
			ck.captureTracker(tr)
			if err := opts.CheckpointFunc(ck); err != nil {
				runErr = err
				break
			}
		}
		iter++
	}

	cancelled := stopped == StopCancelled || stopped == StopDeadline
	if !cancelled {
		flush()
	}

	var out *AlignResult
	if cancelled && !tr.HasBest() {
		// Cancelled before any rounding completed: return an empty
		// matching rather than paying for an exact solve now.
		out = p.emptyResult()
	} else {
		var err error
		out, err = p.finishResult(tr, threads, opts.SkipFinalExact || cancelled)
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	out.Iterations = lastIter
	out.Stopped = stopped
	out.NumericFailures = guard.failures
	out.Err = runErr
	if opts.Trace {
		out.ObjectiveTrace = append([]float64(nil), tr.Objective...)
	}
	return out, runErr
}
