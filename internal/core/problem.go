// Package core implements the network alignment problem and the two
// iterative heuristics the paper parallelizes: Klau's matching
// relaxation (MR, Listing 1) and belief propagation (BP, Listing 2),
// both with pluggable exact or approximate rounding and with the
// batched rounding of Section IV-C.
package core

import (
	"fmt"
	"math"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/graph"
	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
	"netalignmc/internal/stats"
)

// Problem is a network alignment instance: undirected graphs A and B,
// the weighted bipartite candidate graph L between their vertex sets,
// objective weights Alpha (matching weight) and Beta (overlap), and
// the derived overlap matrix S.
//
// S is |E_L|-by-|E_L| over L's canonical edge order with
// S[(i,i'),(j,j')] = 1 exactly when (i,j) ∈ E_A and (i',j') ∈ E_B —
// picking both L-edges into the matching overlaps one edge pair, and
// xᵀSx double-counts, hence the β/2 in the objective. S is symmetric
// with an empty diagonal; its values are all ones, so it is stored as
// its pattern.
type Problem struct {
	A, B  *graph.Graph
	L     *bipartite.Graph
	Alpha float64
	Beta  float64
	S     *Pattern

	// SPerm is the transpose permutation of S's pattern (the paper's
	// permute-the-values transpose trick), shared by the methods:
	// SPerm[k] is the index of entry (c, r) when k is entry (r, c).
	SPerm []int32
}

// CheckInputs reports whether (A, B, L, α, β) form a valid problem:
// L must be |V_A|-by-|V_B| and both objective weights non-negative.
// NewProblem runs exactly these checks before building S, so a caller
// that only needs to validate or serialize a problem can reject the
// same inputs without paying for S.
func CheckInputs(a, b *graph.Graph, l *bipartite.Graph, alpha, beta float64) error {
	if l.NA != a.NumVertices() || l.NB != b.NumVertices() {
		return fmt.Errorf("core: L is %dx%d but |V_A|=%d, |V_B|=%d",
			l.NA, l.NB, a.NumVertices(), b.NumVertices())
	}
	if alpha < 0 || beta < 0 {
		return fmt.Errorf("core: negative objective weights alpha=%g beta=%g", alpha, beta)
	}
	return nil
}

// NewProblem assembles a Problem and builds S. Construction is
// parallelized over the edges of L (threads <= 0 means GOMAXPROCS).
func NewProblem(a, b *graph.Graph, l *bipartite.Graph, alpha, beta float64, threads int) (*Problem, error) {
	if err := CheckInputs(a, b, l, alpha, beta); err != nil {
		return nil, err
	}
	p := &Problem{A: a, B: b, L: l, Alpha: alpha, Beta: beta}
	if err := p.buildS(threads); err != nil {
		return nil, err
	}
	return p, nil
}

// buildS constructs the overlap matrix. For each L-edge e1 = (i,i'),
// the nonzero columns of row e1 are the L-edges (j,j') with
// j ∈ adj_A(i) and j' ∈ adj_B(i'). We enumerate j over adj_A(i) and
// walk L's row of j; membership of j' in adj_B(i') is tested against a
// per-worker epoch-stamped mark array over V_B (O(1) per test instead
// of a binary search, amortizing one neighborhood scan per row). Rows
// are built independently so the loop parallelizes over e1
// (dynamically: the nonzero distribution of S "is highly irregular and
// imbalanced"). The rows are then copied into S's pattern, and one
// counting pass builds the transpose permutation and proves S
// symmetric.
func (p *Problem) buildS(threads int) error {
	m := p.L.NumEdges()
	rows := make([][]int32, m)
	// Worker ids from ForDynamicWorker are in [0, PlannedWorkers), not
	// [0, Threads): sizing by the planned count is the scratch-sizing
	// contract (Threads overestimates when m is small relative to the
	// chunk, allocating mark arrays no worker ever touches).
	nWorkers := parallel.PlannedWorkers(m, threads, 256)
	if nWorkers < 1 {
		nWorkers = 1
	}
	type markSet struct {
		stamp []int64
		epoch int64
	}
	marks := make([]*markSet, nWorkers)
	for w := range marks {
		marks[w] = &markSet{stamp: make([]int64, p.B.NumVertices())}
	}
	parallel.ForDynamicWorker(m, threads, 256, func(worker, lo, hi int) {
		mk := marks[worker]
		for e1 := lo; e1 < hi; e1++ {
			i := p.L.EdgeA[e1]
			iP := p.L.EdgeB[e1]
			mk.epoch++
			for _, jP := range p.B.Neighbors(iP) {
				mk.stamp[jP] = mk.epoch
			}
			var cols []int32
			for _, j := range p.A.Neighbors(i) {
				rlo, rhi := p.L.RowRange(j)
				for e2 := rlo; e2 < rhi; e2++ {
					// jP == iP cannot be marked: B has no self loops.
					if mk.stamp[p.L.EdgeB[e2]] == mk.epoch {
						cols = append(cols, int32(e2))
					}
				}
			}
			rows[e1] = cols
		}
	})
	nnz := 0
	for _, cols := range rows {
		nnz += len(cols)
	}
	if nnz > math.MaxInt32 {
		return fmt.Errorf("core: S has %d nonzeros, above the int32 index limit", nnz)
	}
	ptr := make([]int, m+1)
	col := make([]int32, 0, nnz)
	for e1, cols := range rows {
		col = append(col, cols...)
		ptr[e1+1] = len(col)
	}
	p.S = &Pattern{Ptr: ptr, Col: col}
	perm, err := p.S.transposePerm()
	if err != nil {
		return fmt.Errorf("core: S is not structurally symmetric: %w", err)
	}
	p.SPerm = perm
	return nil
}

// NNZS returns the number of stored entries of S (the paper's Table II
// column "S" counts nonzeros this way; each overlapped edge pair
// contributes two symmetric entries).
func (p *Problem) NNZS() int { return p.S.NNZ() }

// MatchWeight returns wᵀx for an indicator (or heuristic) vector x
// over E_L. The single-thread path skips the parallel reduction: the
// fold closure escapes into it, so even a p=1 call would allocate.
func (p *Problem) MatchWeight(x []float64, threads int) float64 {
	w := p.L.W
	if parallel.Threads(threads) == 1 {
		s := 0.0
		for e := range x {
			s += w[e] * x[e]
		}
		return s
	}
	return parallel.SumFloat64(len(x), threads, func(lo, hi int) float64 {
		s := 0.0
		for e := lo; e < hi; e++ {
			s += w[e] * x[e]
		}
		return s
	})
}

// Overlap returns xᵀSx/2, the number of overlapped edge pairs when x
// is a 0/1 matching indicator.
func (p *Problem) Overlap(x []float64, threads int) float64 {
	if parallel.Threads(threads) == 1 {
		return p.S.quadForm(x, 0, p.S.Rows()) / 2
	}
	quad := parallel.SumFloat64(p.S.Rows(), threads, func(lo, hi int) float64 {
		return p.S.quadForm(x, lo, hi)
	})
	return quad / 2
}

// Objective evaluates α·wᵀx + (β/2)·xᵀSx.
func (p *Problem) Objective(x []float64, threads int) float64 {
	return p.Alpha*p.MatchWeight(x, threads) + p.Beta*p.Overlap(x, threads)
}

// ObjectiveOfMatching evaluates the alignment objective of a matching.
func (p *Problem) ObjectiveOfMatching(r *matching.Result, threads int) float64 {
	return p.Objective(r.Indicator(p.L), threads)
}

// IdentityIndicator returns the indicator of the "identity" alignment
// mapping vertex v of A to vertex v of B wherever that edge exists in
// L. The synthetic generator plants this alignment; quality is
// reported as a fraction of its objective (Figure 2).
func (p *Problem) IdentityIndicator() []float64 {
	x := make([]float64, p.L.NumEdges())
	n := p.A.NumVertices()
	if bn := p.B.NumVertices(); bn < n {
		n = bn
	}
	for v := 0; v < n; v++ {
		if e, ok := p.L.Find(v, v); ok {
			x[e] = 1
		}
	}
	return x
}

// CorrectMatchFraction returns the fraction of A-vertices that a
// matching maps to their identity counterpart, the paper's "fraction
// of correct matches" metric for synthetic problems.
func CorrectMatchFraction(r *matching.Result) float64 {
	if len(r.MateA) == 0 {
		return 0
	}
	correct := 0
	for a, b := range r.MateA {
		if a == b && b >= 0 {
			correct++
		}
	}
	return float64(correct) / float64(len(r.MateA))
}

// Stats summarizes a problem the way the paper's Table II does, plus
// the structural observations of Section VI ("the degree distribution
// in L is fairly regular, whereas the non-zero distribution in S is
// highly irregular and imbalanced").
type Stats struct {
	Name string
	VA   int
	VB   int
	EL   int
	NnzS int
	// MaxLDegree and MeanLDegree describe L's (regular) degree shape
	// over V_A.
	MaxLDegree  int
	MeanLDegree float64
	// MaxSRow and MeanSRow describe S's (imbalanced) row-size shape;
	// Imbalance is MaxSRow/MeanSRow, the quantity that motivates the
	// paper's dynamic scheduling.
	MaxSRow   int
	MeanSRow  float64
	Imbalance float64
	// SRowGini is the Gini coefficient of S's row nonzero counts
	// (0 = perfectly uniform, → 1 = all nonzeros in one row): the
	// skew summary that motivates the nnz-balanced partitioning.
	SRowGini float64
}

// ProblemStats collects Table II statistics for a named problem.
func ProblemStats(name string, p *Problem) Stats {
	st := Stats{
		Name: name,
		VA:   p.A.NumVertices(),
		VB:   p.B.NumVertices(),
		EL:   p.L.NumEdges(),
		NnzS: p.NNZS(),
	}
	for a := 0; a < p.L.NA; a++ {
		if d := p.L.DegreeA(a); d > st.MaxLDegree {
			st.MaxLDegree = d
		}
	}
	if st.VA > 0 {
		st.MeanLDegree = float64(st.EL) / float64(st.VA)
	}
	for r := 0; r < st.EL; r++ {
		lo, hi := p.S.RowRange(r)
		if hi-lo > st.MaxSRow {
			st.MaxSRow = hi - lo
		}
	}
	if st.EL > 0 {
		st.MeanSRow = float64(st.NnzS) / float64(st.EL)
	}
	if st.MeanSRow > 0 {
		st.Imbalance = float64(st.MaxSRow) / st.MeanSRow
	}
	st.SRowGini = stats.SkewOfPtr(p.S.Ptr).Gini
	return st
}

// clamp returns bound_{l,u}(x) from the paper's Table I.
func clamp(x, l, u float64) float64 {
	if x <= l {
		return l
	}
	if x >= u {
		return u
	}
	return x
}

// almostEqual compares floats with a relative-absolute tolerance; used
// by internal consistency checks.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
