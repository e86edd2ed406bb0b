package core

import (
	"sync"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
)

// Workspace is an arena of reusable solver buffers sized from the
// problem being solved. The solvers allocate their message vectors,
// othermax scratch, guard snapshots, and rounding state from it, so a
// workspace handed to successive solves (BPOptions.Workspace /
// MROptions.Workspace) makes steady-state iterations — and warm
// re-solves — perform zero heap allocations. Buffers grow to the
// largest problem seen and are never shrunk.
//
// A workspace serves one solve at a time; concurrent solves need one
// workspace each. A nil workspace in the options is always valid: the
// solve borrows a spare one for its run (see spareWorkspaces).
type Workspace struct {
	// Belief-propagation state: message vectors over E_L and the
	// overlap messages over nnz(S), plus the numeric guard's
	// last-good snapshots.
	y, z, yPrev, zPrev   []float64
	d, om, om2           []float64
	sk, skPrev, f        []float64
	goodY, goodZ, goodSK []float64

	// Matching-relaxation state: multipliers and row-matching
	// indicators over nnz(S), the combined heuristic over E_L, and the
	// guard snapshot of the multipliers.
	u, goodU []float64
	sL       []byte
	wbar     []float64

	// The row matchings' plan for rowsP, built once per problem (see
	// ensureRows), and one row scratch per worker.
	rowPlan matching.RowPlan
	rowsP   *Problem
	rows    []rowScratch

	// Rounding state: one slot per concurrently rounded heuristic
	// (BP's batch size; one for MR). Slots are heap-stable pointers:
	// each slot holds closures capturing itself (see slotObjective),
	// so growing the slice must not move live slots. roundSpec records
	// which matcher spec the slots were built for; roundL which
	// candidate graph.
	slots     []*roundSlot
	roundSpec matching.MatcherSpec
	roundL    *bipartite.Graph

	// parts caches the balanced per-worker partition boundaries for
	// the current (problem, worker count); see Workspace.ensureParts.
	parts partitionSet
}

// spareWorkspaces lends workspaces to solves whose options carry none
// and takes them back when the solve ends, so back-to-back solves
// reuse buffers the size of S instead of each allocating a fresh set
// and leaving the last one to the collector. Solves reinitialize every
// buffer they read, so a borrowed workspace gives the same results as
// a new one.
var spareWorkspaces = sync.Pool{New: func() any { return NewWorkspace() }}

// NewWorkspace returns an empty workspace; buffers are sized on first
// use. The constructor exists so callers can hold one across solves.
func NewWorkspace() *Workspace { return &Workspace{} }

// roundSlot is the reusable state of one rounding evaluation: the
// heuristic copy, a structure-sharing clone of L carrying it as
// weights, the matcher with its scratch, and the result/indicator
// buffers. obj/ok carry the outcome from a parallel batch task back to
// the in-order tracker offers.
type roundSlot struct {
	iter  int
	heur  []float64
	lw    bipartite.Graph
	match matching.MatchInto
	res   matching.Result
	x     []float64
	obj   float64
	ok    bool

	// Hoisted objective folds: a closure handed to the parallel
	// reductions escapes, so building one per evaluation would
	// heap-allocate every rounding. They are built once per
	// (slot, problem) and read the slot's x field, which is re-bound
	// before each evaluation; they are per-slot (not per-problem)
	// because batched tasks evaluate slots concurrently.
	objP   *Problem
	mwFold func(lo, hi int) float64
	qfFold func(lo, hi int) float64
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zeroFloat64(vecs ...[]float64) {
	for _, v := range vecs {
		for i := range v {
			v[i] = 0
		}
	}
}

// ensureBP sizes the belief-propagation buffers for |E_L| = mEL and
// nnz(S) = nnz.
func (ws *Workspace) ensureBP(mEL, nnz int) {
	ws.y = growFloat64(ws.y, mEL)
	ws.z = growFloat64(ws.z, mEL)
	ws.yPrev = growFloat64(ws.yPrev, mEL)
	ws.zPrev = growFloat64(ws.zPrev, mEL)
	ws.d = growFloat64(ws.d, mEL)
	ws.om = growFloat64(ws.om, mEL)
	ws.om2 = growFloat64(ws.om2, mEL)
	ws.goodY = growFloat64(ws.goodY, mEL)
	ws.goodZ = growFloat64(ws.goodZ, mEL)
	ws.sk = growFloat64(ws.sk, nnz)
	ws.skPrev = growFloat64(ws.skPrev, nnz)
	ws.f = growFloat64(ws.f, nnz)
	ws.goodSK = growFloat64(ws.goodSK, nnz)
}

// ensureMR sizes the matching-relaxation buffers.
func (ws *Workspace) ensureMR(mEL, nnz int) {
	ws.u = growFloat64(ws.u, nnz)
	if cap(ws.sL) < nnz {
		ws.sL = make([]byte, nnz)
	}
	ws.sL = ws.sL[:nnz]
	ws.goodU = growFloat64(ws.goodU, nnz)
	ws.wbar = growFloat64(ws.wbar, mEL)
	ws.d = growFloat64(ws.d, mEL)
}

// rowScratch is one worker's state for MR's row matchings: the
// matcher's scratch, the weights of the row being solved, and the
// selected positions.
type rowScratch struct {
	sm  *matching.SubsetMatcher
	w   []float64
	sel []int
}

// ensureRows returns MR's row plan for p and scratch for workers
// workers. The plan depends only on the patterns of S and L, so it is
// built when the problem changes and a warm re-solve reuses it and the
// scratch as they are.
func (ws *Workspace) ensureRows(p *Problem, workers int) (*matching.RowPlan, []rowScratch) {
	if ws.rowsP != p {
		ws.rowsP = p
		ws.rowPlan.Build(p.L, p.S.Ptr, p.S.Col)
		ws.rows = ws.rows[:0]
	}
	for len(ws.rows) < workers {
		ws.rows = append(ws.rows, rowScratch{
			sm: matching.NewSubsetMatcher(p.L.NA, p.L.NB),
			w:  make([]float64, ws.rowPlan.MaxRow()),
		})
	}
	return &ws.rowPlan, ws.rows[:workers]
}

// ensureRound prepares n rounding slots for problem p, each with its
// own reusable matcher built from spec so concurrent batch tasks never
// share scratch. Slots are rebuilt when the spec or the candidate
// graph changes.
func (ws *Workspace) ensureRound(p *Problem, spec matching.MatcherSpec, n int) error {
	if ws.roundSpec != spec || ws.roundL != p.L {
		ws.slots = ws.slots[:0]
		ws.roundSpec = spec
		ws.roundL = p.L
	}
	for len(ws.slots) < n {
		m, err := spec.Reusable()
		if err != nil {
			return err
		}
		ws.slots = append(ws.slots, &roundSlot{match: m})
	}
	for _, s := range ws.slots {
		s.lw = *p.L // shares structure; W is repointed at the heuristic
		s.lw.W = nil
	}
	return nil
}

// roundSlotRun rounds the slot's heuristic: match L under the
// heuristic weights, re-base the matching on L's true weights, and
// evaluate the alignment objective. The caller offers the outcome to
// its tracker (in batch order, after any parallel barrier).
func (p *Problem) roundSlotRun(s *roundSlot, threads int) {
	s.ok = false
	s.lw.W = s.heur
	s.match(&s.lw, threads, &s.res)
	s.res.Rescore(p.L)
	s.x = s.res.IndicatorInto(p.L, s.x)
	s.obj = p.slotObjective(s, threads)
	s.ok = true
}

// slotObjective is p.Objective(s.x, threads) evaluated through the
// slot's hoisted folds. The partitions and combine order match
// MatchWeight and Overlap exactly, so the result is bit-identical to
// Objective for the same thread count, without the per-call closures.
func (p *Problem) slotObjective(s *roundSlot, threads int) float64 {
	if parallel.Threads(threads) == 1 {
		return p.Objective(s.x, 1)
	}
	if s.objP != p {
		s.objP = p
		s.mwFold = func(lo, hi int) float64 {
			w := p.L.W
			x := s.x
			sum := 0.0
			for e := lo; e < hi; e++ {
				sum += w[e] * x[e]
			}
			return sum
		}
		s.qfFold = func(lo, hi int) float64 {
			return p.S.quadForm(s.x, lo, hi)
		}
	}
	mw := parallel.SumFloat64(len(s.x), threads, s.mwFold)
	quad := parallel.SumFloat64(p.S.Rows(), threads, s.qfFold)
	return p.Alpha*mw + p.Beta*(quad/2)
}
