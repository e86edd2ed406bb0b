package core

import (
	"context"

	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
	"netalignmc/internal/stats"
)

// MR step names, used by the Figure 6 per-step scaling study.
const (
	MRStepRowMatch  = "rowmatch"  // Step 1: one small matching per row of S
	MRStepDaxpy     = "daxpy"     // Step 2: w̄ = αw + d
	MRStepMatch     = "match"     // Step 3: x = bipartite_match(w̄)
	MRStepObjective = "objective" // Step 4: objective and upper bound
	MRStepUpdateU   = "updateU"   // Step 5: multiplier update
)

// MROptions configures Klau's matching-relaxation method (Listing 1).
type MROptions struct {
	// Iterations is n_iter. The paper notes there is no point running
	// beyond 500–1000 iterations; the scaling studies use 400.
	Iterations int
	// Gamma is the initial subgradient step size γ (halved whenever
	// the upper bound stalls for MStep iterations).
	Gamma float64
	// MStep is the stall window before halving γ; the paper's scaling
	// runs use mstep = 10.
	MStep int
	// UBound clamps the Lagrange multipliers to [-UBound, UBound]; 0
	// selects the default β/2.
	UBound float64
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Chunk is the context-poll granularity of the S sweeps, in
	// indices (0 = 1000, the value the paper tuned as the dynamic
	// chunk for the imbalanced S-indexed loops). The sweeps themselves
	// split their index spaces by nnz-balanced partitions (see
	// DESIGN.md §4), so Chunk never changes the output.
	Chunk int
	// Matcher declaratively selects the Step 3 matcher (the zero value
	// is exact matching; {Name: "approx"} gives the paper's
	// substitution). Step 1's per-row matchings are always exact ("we
	// always use exact matching in the first step... because the
	// problems in each row tend to be small and we parallelize over
	// rows"). The solver builds one reusable matcher from it, which is
	// what makes the steady-state rounding allocation-free.
	Matcher matching.MatcherSpec
	// Workspace supplies reusable solver buffers; nil borrows a spare
	// one for the solve from a process-wide pool. Handing the same
	// workspace to successive solves on same-shaped problems removes
	// the per-solve buffer allocations too. A workspace serves one
	// solve at a time.
	Workspace *Workspace
	// GreedyRowMatch replaces the exact per-row matchings of Step 1
	// with the greedy half-approximation. The paper always uses exact
	// row matching ("the problems in each row tend to be small");
	// this option exists to measure that design choice (ablation
	// BenchmarkAblationRowMatch).
	GreedyRowMatch bool
	// GapTolerance, when positive, stops the iteration early once the
	// relative gap between the best upper bound and the best rounded
	// objective falls below it — the paper: "this method can actually
	// detect when it has reached the optimal point, although that will
	// not always occur".
	GapTolerance float64
	// SkipFinalExact disables the final exact rounding of the best
	// heuristic (used by scaling studies, which exclude that step).
	SkipFinalExact bool
	// Timer, when non-nil, accumulates per-step wall time.
	Timer *stats.StepTimer
	// Trace records per-iteration upper and lower bounds.
	Trace bool
	// Observer, when non-nil, is called each iteration with the
	// combined heuristic w̄ (aliasing an internal buffer — copy before
	// retaining), the upper bound w̄ᵀx and the rounded objective.
	Observer func(iter int, wbar []float64, upper, obj float64)

	// Resume, when non-nil, restores the solver state from a
	// checkpoint of a previous run on the same problem with the same
	// options; the run continues at iteration Resume.Iter+1 and is bit
	// identical to the uninterrupted run.
	Resume *Checkpoint
	// CheckpointEvery, when positive with CheckpointFunc set, snapshots
	// the run every that many iterations.
	CheckpointEvery int
	// CheckpointFunc receives each snapshot; returning an error stops
	// the run and surfaces through AlignResult.Err.
	CheckpointFunc func(*Checkpoint) error
	// GuardLimit is the numeric guard's magnitude explosion threshold:
	// 0 selects the default (1e100), negative disables the guard.
	GuardLimit float64
	// Faults, when non-nil, corrupts step outputs for robustness tests
	// (see internal/faults). Production runs leave it nil.
	Faults FaultInjector
}

func (o *MROptions) defaults(p *Problem) MROptions {
	opts := *o
	if opts.Iterations <= 0 {
		opts.Iterations = 100
	}
	if opts.Gamma <= 0 {
		opts.Gamma = 0.5
	}
	if opts.MStep <= 0 {
		opts.MStep = 10
	}
	if opts.UBound <= 0 {
		opts.UBound = p.Beta / 2
		if opts.UBound == 0 {
			opts.UBound = 0.5
		}
	}
	if opts.Chunk <= 0 {
		opts.Chunk = parallel.DefaultChunk
	}
	return opts
}

// AlignResult is the outcome of an alignment method.
type AlignResult struct {
	// Matching is the returned alignment.
	Matching *matching.Result
	// Objective is α·wᵀx + (β/2)·xᵀSx of Matching.
	Objective float64
	// MatchWeight is wᵀx and Overlap is xᵀSx/2 of Matching — the two
	// axes of the paper's Figure 3.
	MatchWeight float64
	Overlap     float64
	// BestIter is the iteration whose heuristic produced the best
	// rounded objective; Evaluations counts round_heuristic calls.
	BestIter    int
	Iterations  int
	Evaluations int
	// Converged reports that MR stopped early because the bound gap
	// fell below MROptions.GapTolerance; ConvergedIter is the
	// iteration at which that happened.
	Converged     bool
	ConvergedIter int
	// Stopped records why the run ended (StopMaxIter for a run that
	// exhausted its iteration budget — the zero value, so results from
	// the non-context API read the same as before).
	Stopped StopReason
	// NumericFailures counts numeric-guard trips (rollbacks plus the
	// final recurring failure if the run stopped with StopNumerics).
	NumericFailures int
	// Err records a resilience failure surfaced through the old
	// non-error API: a mismatched Resume checkpoint, a failing
	// CheckpointFunc, or an internal invariant violation that was a
	// panic in earlier versions. The context API also returns it.
	Err error
	// Upper and Lower trace the per-iteration upper bound w̄ᵀx and
	// rounded objective (MR only, with Trace set).
	Upper []float64
	Lower []float64
	// ObjectiveTrace holds every rounded objective in evaluation order
	// (with Trace set).
	ObjectiveTrace []float64
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (p *Problem) finishResult(tr *Tracker, threads int, skipFinal bool) (*AlignResult, error) {
	var res *matching.Result
	var obj float64
	if skipFinal {
		if tr.HasBest() {
			res, obj = tr.BestMatching, tr.BestObjective
		} else {
			res = matching.Exact(p.L, threads)
			obj = p.ObjectiveOfMatching(res, threads)
		}
	} else {
		var err error
		res, obj, err = p.FinalRound(tr, threads)
		if err != nil {
			return p.emptyResult(), err
		}
	}
	x := res.Indicator(p.L)
	return &AlignResult{
		Matching:    res,
		Objective:   obj,
		MatchWeight: p.MatchWeight(x, threads),
		Overlap:     p.Overlap(x, threads),
		BestIter:    tr.BestIter,
		Evaluations: tr.Evaluations,
	}, nil
}

// KlauAlign runs Klau's iterative matching relaxation (Listing 1) to
// completion; it is the context-free form. Errors from the resilience
// options are reported via AlignResult.Err.
//
// Deprecated: KlauAlign is a thin wrapper over Problem.Align; new code
// should call Align with Options{Method: MethodMR}.
func (p *Problem) KlauAlign(o MROptions) *AlignResult {
	res, _ := p.Align(context.Background(), Options{Method: MethodMR, MR: o})
	return res
}

// MRAlignCtx runs Klau's iterative matching relaxation (Listing 1)
// under a context.
//
// Deprecated: MRAlignCtx is a thin wrapper over Problem.Align; new
// code should call Align with Options{Method: MethodMR}.
func (p *Problem) MRAlignCtx(ctx context.Context, o MROptions) (*AlignResult, error) {
	return p.Align(ctx, Options{Method: MethodMR, MR: o})
}

// mrAlign runs Klau's iterative matching relaxation (Listing 1) under a
// context.
//
// Each iteration: (1) solve, for every row of S, a small exact
// matching over L weighted by β/2·S + U − Uᵀ, recording the row values
// in d and the selected entries in S_L; (2) form w̄ = αw + d; (3)
// round w̄ to a matching x with the configured matcher; (4) evaluate
// the objective (lower bound) and w̄ᵀx (upper bound); (5) take a
// subgradient step on the multipliers U restricted to the upper
// triangle, clamped to [-UBound, UBound], halving γ when the upper
// bound has not improved for MStep iterations.
//
// Cancelling the context stops the run mid-iteration in bounded time,
// returning the best matching found so far with Stopped set to
// StopCancelled or StopDeadline. The numeric guard checks w̄ before
// rounding and the multipliers after each subgradient step; a failing
// iteration rolls back to the last good multipliers with a tightened
// step size, and a recurring failure stops with StopNumerics.
//
// Vectors come from the workspace and the kernel closures are created
// once before the loop (a closure handed to the parallel constructs
// escapes), so steady-state iterations perform no heap allocations at
// Threads=1.
func (p *Problem) mrAlign(ctx context.Context, o MROptions) (*AlignResult, error) {
	opts := o.defaults(p)
	threads, chunk := opts.Threads, opts.Chunk
	timer := opts.Timer
	nnz := p.S.NNZ()
	mEL := p.L.NumEdges()

	tr := &Tracker{Trace: opts.Trace}
	guard := newNumericGuard(opts.GuardLimit)

	ws := opts.Workspace
	if ws == nil {
		ws = spareWorkspaces.Get().(*Workspace)
		defer spareWorkspaces.Put(ws)
	}
	ws.ensureMR(mEL, nnz)
	if err := ws.ensureRound(p, opts.Matcher, 1); err != nil {
		res := p.emptyResult()
		res.Err = err
		return res, err
	}
	mrS := ws.slots[0]
	// The run's parallel-region dispatcher: a persistent worker pool
	// plus the per-problem nnz-balanced partitions cached in the
	// workspace.
	e := newExec(p, ws, threads, chunk)
	defer e.close()

	u := ws.u       // Lagrange multipliers (upper triangle only)
	sL := ws.sL     // row-matching indicators
	d := ws.d       // row-matching values
	wbar := ws.wbar // αw + d
	zeroFloat64(u, d, wbar)
	clear(sL)
	gamma := opts.Gamma
	bestUpper := 0.0
	haveUpper := false
	sinceImproved := 0
	converged := false
	convergedIter := 0
	startIter := 1
	if opts.Resume != nil {
		if err := opts.Resume.Validate(p, "mr"); err != nil {
			res := p.emptyResult()
			res.Err = err
			return res, err
		}
		copy(u, opts.Resume.U)
		gamma = opts.Resume.Gamma
		bestUpper = opts.Resume.BestUpper
		haveUpper = opts.Resume.HaveUpper
		sinceImproved = opts.Resume.SinceImproved
		guard.tighten = opts.Resume.Tighten
		if guard.tighten == 0 {
			guard.tighten = 1
		}
		guard.failures = opts.Resume.Failures
		opts.Resume.restoreTracker(p, tr)
		startIter = opts.Resume.Iter + 1
	}
	lastIter := startIter - 1

	// Last-good snapshots for the numeric guard's rollback: the
	// multipliers plus the subgradient step-control scalars they were
	// produced under.
	goodU := ws.goodU
	copy(goodU, u)
	goodGamma := gamma
	goodBestUpper := bestUpper
	goodHaveUpper := haveUpper
	goodSinceImproved := sinceImproved

	var upperTrace, lowerTrace []float64
	perm := p.SPerm
	beta2 := p.Beta / 2
	w := p.L.W
	alpha := p.Alpha
	sPtr := p.S.Ptr
	sCol := p.S.Col
	bound := opts.UBound

	// Per-worker row-matching scratch, preallocated outside the
	// iteration (§IV-B: "We precompute the maximum memory required for
	// p threads to run matching problems on the rows of S and
	// preallocate this memory outside of the iteration"). Sized by the
	// dispatcher's worker-id bound (see exec.rowWorkers). The row plan
	// holds each row's vertex compaction, which depends only on the
	// patterns, so it is built once per problem, not per solve.
	rowPlan, rows := ws.ensureRows(p, e.rowWorkers())

	stopped := StopMaxIter
	var runErr error

	rollback := func() {
		copy(u, goodU)
		gamma = goodGamma
		bestUpper = goodBestUpper
		haveUpper = goodHaveUpper
		sinceImproved = goodSinceImproved
	}

	// Per-iteration state read by the hoisted kernels below. The
	// closures are created once — handing a fresh closure to the
	// parallel constructs every iteration would heap-allocate on the
	// hot path — and see updates through these captured variables.
	var iter int
	var x []float64
	var obj, upper float64
	var gU float64 // γ·tighten, fixed before the Step 5 sweep

	// One small exact matching per row; the row problems are tiny and
	// independent, so parallelize across rows over the nnz-balanced row
	// partition (the row sizes are highly imbalanced) and solve each
	// with the worker's preallocated scratch. The row's weights
	// β/2·S + U − Uᵀ go to the worker's scratch just before its
	// matching reads them.
	rowMatchKernel := func(worker, lo, hi int) {
		rs := &rows[worker]
		for e1 := lo; e1 < hi; e1++ {
			klo, khi := sPtr[e1], sPtr[e1+1]
			if klo == khi {
				d[e1] = 0
				continue
			}
			rowW := rs.w[:khi-klo]
			for k := klo; k < khi; k++ {
				rowW[k-klo] = beta2 + u[k] - u[perm[k]]
			}
			var value float64
			if opts.GreedyRowMatch {
				rs.sel, value = rs.sm.GreedySubset(p.L, sCol[klo:khi], rowW, rs.sel[:0])
			} else {
				rs.sel, value = rs.sm.SolveRow(rowPlan, e1, rowW, rs.sel[:0])
			}
			clear(sL[klo:khi])
			for _, pos := range rs.sel {
				sL[klo+pos] = 1
			}
			d[e1] = value
		}
	}
	daxpyKernel := func(lo, hi int) {
		for e := lo; e < hi; e++ {
			wbar[e] = alpha*w[e] + d[e]
		}
	}
	upperKernel := func(lo, hi int) float64 {
		s := 0.0
		for e := lo; e < hi; e++ {
			s += wbar[e] * x[e]
		}
		return s
	}
	// Step 5: update U on the upper triangle:
	// F = U − γ·X·triu(S_L) + γ·tril(S_L)ᵀ·X, clamped. The guard's
	// tighten factor (< 1 after a numeric rollback) shrinks the
	// subgradient step. It runs over the rows of S, reading x[e1] once
	// per row. The multipliers live on the upper triangle, which is
	// each row's tail because columns ascend within a row.
	updateUKernel := func(lo, hi int) {
		for e1 := lo; e1 < hi; e1++ {
			xe1 := x[e1]
			for k := sPtr[e1+1] - 1; k >= sPtr[e1] && int(sCol[k]) > e1; k-- {
				f := u[k] - gU*xe1*float64(sL[k]) + gU*float64(sL[perm[k]])*x[sCol[k]]
				u[k] = clamp(f, -bound, bound)
			}
		}
	}
	step1 := func() { e.forSRowsWorker(ctx, mEL, rowMatchKernel) }
	step2 := func() { e.forEdges(mEL, daxpyKernel) }
	// Step 3: match w̄ on L's structure with the slot's reusable
	// matcher, then re-base the matching on L's true weights.
	step3 := func() {
		mrS.lw.W = wbar
		mrS.match(&mrS.lw, threads, &mrS.res)
		mrS.res.Rescore(p.L)
	}
	step4 := func() {
		x = mrS.res.IndicatorInto(p.L, mrS.x)
		mrS.x = x
		obj = p.slotObjective(mrS, threads)
		tr.Offer(iter, obj, &mrS.res, wbar)
		upper = parallel.SumFloat64(mEL, threads, upperKernel)
		if opts.Trace {
			upperTrace = append(upperTrace, upper)
			lowerTrace = append(lowerTrace, obj)
		}
		// Subgradient step control: halve γ when the upper bound
		// has not improved (decreased) within MStep iterations.
		if !haveUpper || upper < bestUpper-1e-12 {
			haveUpper = true
			bestUpper = upper
			sinceImproved = 0
		} else {
			sinceImproved++
			if sinceImproved >= opts.MStep {
				gamma /= 2
				sinceImproved = 0
			}
		}
	}
	step5 := func() { e.forSRows(ctx, mEL, updateUKernel) }

	iter = startIter
	for iter <= opts.Iterations {
		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}
		// Step 1: row match.
		timer.Time(MRStepRowMatch, step1)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(MRStepRowMatch, iter, d)
		}

		// Step 2: daxpy.
		timer.Time(MRStepDaxpy, step2)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(MRStepDaxpy, iter, wbar)
			opts.Faults.CorruptVector(MRStepMatch, iter, wbar)
		}

		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}

		// Numeric guard: w̄ is the product of the multipliers and the
		// row matchings, so one scan here catches NaN/Inf or explosion
		// from either before it reaches the matcher, the tracker, or
		// the subgradient control.
		if !guard.ok(threads, wbar) {
			if guard.trip() {
				rollback()
				continue
			}
			stopped = StopNumerics
			break
		}

		timer.Time(MRStepMatch, step3)

		// Step 4: objective (lower bound) and upper bound.
		timer.Time(MRStepObjective, step4)

		gU = gamma * guard.tighten
		timer.Time(MRStepUpdateU, step5)
		if opts.Faults != nil {
			opts.Faults.CorruptVector(MRStepUpdateU, iter, u)
		}

		if err := ctx.Err(); err != nil {
			stopped = stopReasonForCtx(err)
			break
		}

		// Numeric guard on the updated multipliers.
		if !guard.ok(threads, u) {
			if guard.trip() {
				rollback()
				continue
			}
			rollback()
			stopped = StopNumerics
			break
		}
		guard.clean()
		copy(goodU, u)
		goodGamma = gamma
		goodBestUpper = bestUpper
		goodHaveUpper = haveUpper
		goodSinceImproved = sinceImproved

		if opts.Observer != nil {
			opts.Observer(iter, wbar, upper, obj)
		}

		lastIter = iter

		if opts.CheckpointEvery > 0 && opts.CheckpointFunc != nil && iter%opts.CheckpointEvery == 0 {
			ck := &Checkpoint{
				Method:        "mr",
				Iter:          iter,
				U:             append([]float64(nil), u...),
				Gamma:         gamma,
				BestUpper:     bestUpper,
				HaveUpper:     haveUpper,
				SinceImproved: sinceImproved,
				Tighten:       guard.tighten,
				Failures:      guard.failures,
			}
			ck.fingerprint(p)
			ck.captureTracker(tr)
			if err := opts.CheckpointFunc(ck); err != nil {
				runErr = err
				break
			}
		}

		// Optimality detection: the best rounded objective is a lower
		// bound and bestUpper an upper bound on the optimum; a closed
		// gap proves the tracked solution optimal.
		if lower, ok := tr.Best(); opts.GapTolerance > 0 && haveUpper && ok {
			if bestUpper-lower <= opts.GapTolerance*(1+absf(lower)) {
				converged = true
				convergedIter = iter
				stopped = StopConverged
				break
			}
		}
		iter++
	}

	cancelled := stopped == StopCancelled || stopped == StopDeadline
	var out *AlignResult
	if cancelled && !tr.HasBest() {
		out = p.emptyResult()
	} else {
		var err error
		out, err = p.finishResult(tr, threads, opts.SkipFinalExact || cancelled)
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	out.Iterations = lastIter
	out.Converged = converged
	out.ConvergedIter = convergedIter
	out.Stopped = stopped
	out.NumericFailures = guard.failures
	out.Err = runErr
	out.Upper = upperTrace
	out.Lower = lowerTrace
	if opts.Trace {
		out.ObjectiveTrace = append([]float64(nil), tr.Objective...)
	}
	return out, runErr
}
