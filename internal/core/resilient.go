package core

import (
	"context"
	"fmt"
	"math"

	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
)

// StopReason records why an alignment run ended. The zero value is
// StopMaxIter (the fixed iteration budget ran out), which is also what
// every pre-context run reports.
type StopReason int

const (
	// StopMaxIter: the iteration budget was exhausted.
	StopMaxIter StopReason = iota
	// StopConverged: MR closed its bound gap below GapTolerance.
	StopConverged
	// StopCancelled: the context was cancelled mid-run.
	StopCancelled
	// StopDeadline: the context deadline expired mid-run.
	StopDeadline
	// StopNumerics: the numeric guard hit a recurring NaN/Inf or
	// message explosion and stopped with the best valid matching.
	StopNumerics
)

// String returns the stop reason name.
func (r StopReason) String() string {
	switch r {
	case StopConverged:
		return "converged"
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline"
	case StopNumerics:
		return "numerics"
	default:
		return "max-iterations"
	}
}

// stopReasonForCtx maps a context error to its stop reason.
func stopReasonForCtx(err error) StopReason {
	if err == context.DeadlineExceeded {
		return StopDeadline
	}
	return StopCancelled
}

// FaultInjector corrupts solver state at named steps. It exists so the
// robustness tests (internal/faults) can deterministically inject NaNs
// into any step's output vector without build tags; production runs
// leave the option nil and pay one nil check per step.
type FaultInjector interface {
	// CorruptVector may overwrite entries of vec, the output vector of
	// the named step at the given iteration.
	CorruptVector(step string, iter int, vec []float64)
}

// Checkpoint is a serializable snapshot of a solver run at an
// iteration boundary: the iterate/message vectors, the step-control
// scalars, and the tracker's best rounded matching. Resuming from a
// checkpoint reproduces the uninterrupted run bit for bit (same
// problem, same options). Checkpoints are produced via
// BPOptions/MROptions.CheckpointEvery + CheckpointFunc and consumed
// via the Resume option; internal/problemio serializes them with
// exact hexadecimal float round-tripping.
type Checkpoint struct {
	// Method is "bp" or "mr".
	Method string
	// Iter is the number of completed iterations.
	Iter int

	// Problem fingerprint, validated on resume.
	Alpha, Beta     float64
	NA, NB, EL, NNZ int

	// BP state: damped message vectors after iteration Iter and the
	// damping weight accumulator.
	Y, Z, SK []float64
	GammaK   float64

	// MR state: Lagrange multipliers and subgradient step control.
	U             []float64
	Gamma         float64
	BestUpper     float64
	HaveUpper     bool
	SinceImproved int

	// Numeric-guard state.
	Tighten  float64
	Failures int

	// Tracker state: the best rounded solution so far.
	HasBest       bool
	BestIter      int
	Evaluations   int
	BestObjective float64
	BestHeuristic []float64
	BestMateA     []int
}

// Validate checks that the checkpoint belongs to this problem and
// method. It guards resume against the checkpoint-from-a-different-
// problem class of mistakes before any state is copied.
func (c *Checkpoint) Validate(p *Problem, method string) error {
	if c == nil {
		return fmt.Errorf("core: nil checkpoint")
	}
	if c.Method != method {
		return fmt.Errorf("core: checkpoint is for method %q, not %q", c.Method, method)
	}
	if c.NA != p.L.NA || c.NB != p.L.NB || c.EL != p.L.NumEdges() || c.NNZ != p.S.NNZ() {
		return fmt.Errorf("core: checkpoint fingerprint (na=%d nb=%d el=%d nnz=%d) does not match problem (na=%d nb=%d el=%d nnz=%d)",
			c.NA, c.NB, c.EL, c.NNZ, p.L.NA, p.L.NB, p.L.NumEdges(), p.S.NNZ())
	}
	if c.Alpha != p.Alpha || c.Beta != p.Beta {
		return fmt.Errorf("core: checkpoint objective weights (alpha=%g beta=%g) do not match problem (alpha=%g beta=%g)",
			c.Alpha, c.Beta, p.Alpha, p.Beta)
	}
	if c.Iter < 0 {
		return fmt.Errorf("core: checkpoint iteration %d negative", c.Iter)
	}
	switch method {
	case "bp":
		if len(c.Y) != c.EL || len(c.Z) != c.EL || len(c.SK) != c.NNZ {
			return fmt.Errorf("core: bp checkpoint vector lengths (y=%d z=%d sk=%d) do not match el=%d nnz=%d",
				len(c.Y), len(c.Z), len(c.SK), c.EL, c.NNZ)
		}
	case "mr":
		if len(c.U) != c.NNZ {
			return fmt.Errorf("core: mr checkpoint multiplier length %d does not match nnz=%d", len(c.U), c.NNZ)
		}
	}
	if c.HasBest {
		if len(c.BestHeuristic) != c.EL {
			return fmt.Errorf("core: checkpoint best heuristic length %d does not match el=%d", len(c.BestHeuristic), c.EL)
		}
		if len(c.BestMateA) != c.NA {
			return fmt.Errorf("core: checkpoint best matching length %d does not match na=%d", len(c.BestMateA), c.NA)
		}
	}
	return nil
}

// fingerprint stamps the problem identity onto a checkpoint.
func (c *Checkpoint) fingerprint(p *Problem) {
	c.Alpha, c.Beta = p.Alpha, p.Beta
	c.NA, c.NB = p.L.NA, p.L.NB
	c.EL = p.L.NumEdges()
	c.NNZ = p.S.NNZ()
}

// captureTracker copies the tracker's best solution into c.
func (c *Checkpoint) captureTracker(tr *Tracker) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	c.HasBest = tr.hasBest
	c.BestIter = tr.BestIter
	c.Evaluations = tr.Evaluations
	c.BestObjective = tr.BestObjective
	if tr.hasBest {
		c.BestHeuristic = append([]float64(nil), tr.BestHeuristic...)
		c.BestMateA = append([]int(nil), tr.BestMatching.MateA...)
	}
}

// restoreTracker rebuilds a tracker from the checkpoint's best
// solution (after Validate has passed).
func (c *Checkpoint) restoreTracker(p *Problem, tr *Tracker) {
	tr.Evaluations = c.Evaluations
	if !c.HasBest {
		return
	}
	mateA := append([]int(nil), c.BestMateA...)
	mateB := make([]int, c.NB)
	for b := range mateB {
		mateB[b] = -1
	}
	for a, b := range mateA {
		if b >= 0 {
			mateB[b] = a
		}
	}
	tr.hasBest = true
	tr.BestIter = c.BestIter
	tr.BestObjective = c.BestObjective
	tr.BestHeuristic = append([]float64(nil), c.BestHeuristic...)
	tr.BestMatching = matching.NewResult(p.L, mateA, mateB)
}

// defaultGuardLimit is the message-magnitude threshold of the numeric
// guard: far above anything a sane iteration produces, far below
// overflow, so explosion is caught while it is still recoverable.
const defaultGuardLimit = 1e100

// guardRetries is how many rollbacks the numeric guard attempts before
// declaring the failure recurring and stopping with StopNumerics: one
// rollback, then stop if the retried iteration fails again.
const guardRetries = 1

// maxGuardFailures caps total numeric failures across a run so
// scattered transient faults cannot livelock the solver.
const maxGuardFailures = 10

// numericGuard implements the shared BP/MR numerical-hardening policy:
// per-iteration NaN/Inf and magnitude-explosion detection with
// rollback to the last good iterate, damping/step tightening, and
// escalation to StopNumerics when the failure recurs.
type numericGuard struct {
	limit float64
	// tighten is the accumulated damping multiplier (< 1 after a
	// rollback); solvers fold it into their step/damping weight.
	tighten float64
	// failures counts guard trips across the run; consecutive counts
	// trips since the last clean iteration.
	failures    int
	consecutive int
	disabled    bool

	// vec/fold implement the multi-thread scan without per-call
	// closures: fold is created once per guard and reads whichever
	// vector ok has bound to vec, keeping the per-iteration guard scan
	// off the allocation budget.
	vec  []float64
	fold func(lo, hi int) float64
}

// newNumericGuard builds a guard from the options' limit field:
// 0 selects defaultGuardLimit, negative disables the guard.
func newNumericGuard(limit float64) *numericGuard {
	g := &numericGuard{limit: limit, tighten: 1}
	if limit == 0 {
		g.limit = defaultGuardLimit
	} else if limit < 0 {
		g.disabled = true
	}
	g.fold = func(lo, hi int) float64 {
		return maxAbsOrInfRange(g.vec, lo, hi)
	}
	return g
}

// ok scans the vectors for NaN/Inf and magnitude explosion.
func (g *numericGuard) ok(threads int, vecs ...[]float64) bool {
	if g.disabled {
		return true
	}
	if parallel.Threads(threads) == 1 {
		for _, v := range vecs {
			if maxAbsOrInfRange(v, 0, len(v)) > g.limit {
				return false
			}
		}
		return true
	}
	for _, v := range vecs {
		g.vec = v
		m := parallel.ReduceFloat64(len(v), threads, g.fold, math.Max, 0)
		g.vec = nil
		if m > g.limit {
			return false
		}
	}
	return true
}

// clean records a successful iteration.
func (g *numericGuard) clean() { g.consecutive = 0 }

// trip records a guard failure; it reports whether the solver should
// roll back and retry (true) or stop with StopNumerics (false). A
// disabled guard records nothing and never escalates (the rounding
// path still skips non-finite heuristics for correctness, but that is
// not accounted as a failure).
func (g *numericGuard) trip() (retry bool) {
	if g.disabled {
		return true
	}
	g.failures++
	g.consecutive++
	if g.consecutive > guardRetries || g.failures >= maxGuardFailures {
		return false
	}
	g.tighten *= 0.5
	return true
}

// maxAbsOrInfRange returns the maximum absolute value of v[lo:hi],
// mapping any NaN to +Inf so a single comparison against the guard
// limit detects both non-finite entries and magnitude explosion.
func maxAbsOrInfRange(v []float64, lo, hi int) float64 {
	m := 0.0
	for i := lo; i < hi; i++ {
		x := v[i]
		if math.IsNaN(x) {
			return math.Inf(1)
		}
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

// finiteVector reports whether every entry of v is finite (serial; for
// the short pre-rounding heuristic checks).
func finiteVector(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// emptyResult returns an AlignResult holding an empty matching — the
// best-so-far of a run cancelled before any rounding completed.
func (p *Problem) emptyResult() *AlignResult {
	mateA := make([]int, p.L.NA)
	for i := range mateA {
		mateA[i] = -1
	}
	mateB := make([]int, p.L.NB)
	for i := range mateB {
		mateB[i] = -1
	}
	return &AlignResult{Matching: matching.NewResult(p.L, mateA, mateB)}
}
