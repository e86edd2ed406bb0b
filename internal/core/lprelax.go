package core

import (
	"fmt"

	"netalignmc/internal/lp"
	"netalignmc/internal/matching"
)

// LPRelaxationResult is the outcome of solving the relaxed MILP.
type LPRelaxationResult struct {
	// Scores are the relaxed x values over E_L (the "real-valued score
	// for each edge in L" of Section III).
	Scores []float64
	// Bound is the LP optimum — an upper bound on every integral
	// alignment objective.
	Bound float64
	// Rounded is the alignment obtained by rounding the scores with
	// one exact matching, Section III's straightforward heuristic.
	Rounded *AlignResult
	// Iterations is the simplex pivot count.
	Iterations int
}

// LPRelaxation builds and solves the LP relaxation of the paper's
// MILP formulation:
//
//	maximize    α·wᵀx + (β/2)·eᵀYe
//	subject to  Cx ≤ e                     (matching constraints)
//	            Y_kl ≤ x_k, Y_kl ≤ x_l     for every nonzero of S
//	            0 ≤ x ≤ 1, Y ≥ 0
//
// with the integrality of x dropped. The variables are the |E_L| edge
// scores plus one Y variable per stored nonzero of S (the symmetric
// pair (l,k) is a separate variable, matching eᵀYe = xᵀSx's double
// counting under the β/2 factor). Solving it yields both an upper
// bound on the alignment optimum and the score vector the
// straightforward rounding heuristic uses. The dense simplex solver
// limits this to small instances (the paper, likewise, presents the LP
// only as a conceptual baseline: "Both of the algorithms below
// outperform this procedure").
func (p *Problem) LPRelaxation(maxVars int, threads int) (*LPRelaxationResult, error) {
	mEL := p.L.NumEdges()
	nnz := p.S.NNZ()
	nVars := mEL + nnz
	if maxVars > 0 && nVars > maxVars {
		return nil, fmt.Errorf("core: LP relaxation has %d variables, above the limit %d (dense simplex)", nVars, maxVars)
	}
	prob := &lp.Problem{
		NumVars:   nVars,
		Objective: make([]float64, nVars),
	}
	for e := 0; e < mEL; e++ {
		prob.Objective[e] = p.Alpha * p.L.W[e]
	}
	for k := 0; k < nnz; k++ {
		prob.Objective[mEL+k] = p.Beta / 2
	}
	// Matching constraints: Σ_{e ∈ row(a)} x_e ≤ 1 and column-wise.
	for a := 0; a < p.L.NA; a++ {
		lo, hi := p.L.RowRange(a)
		if lo == hi {
			continue
		}
		c := lp.Constraint{B: 1}
		for e := lo; e < hi; e++ {
			c.Cols = append(c.Cols, e)
			c.Vals = append(c.Vals, 1)
		}
		prob.Constraints = append(prob.Constraints, c)
	}
	for b := 0; b < p.L.NB; b++ {
		edges := p.L.ColEdgesOf(b)
		if len(edges) == 0 {
			continue
		}
		c := lp.Constraint{B: 1}
		for _, e := range edges {
			c.Cols = append(c.Cols, e)
			c.Vals = append(c.Vals, 1)
		}
		prob.Constraints = append(prob.Constraints, c)
	}
	// Linking constraints: Y_kl − x_k ≤ 0 and Y_kl − x_l ≤ 0.
	for rowEdge := 0; rowEdge < mEL; rowEdge++ {
		for k := p.S.Ptr[rowEdge]; k < p.S.Ptr[rowEdge+1]; k++ {
			colEdge := int(p.S.Col[k])
			prob.Constraints = append(prob.Constraints,
				lp.Constraint{Cols: []int{mEL + k, rowEdge}, Vals: []float64{1, -1}, B: 0},
				lp.Constraint{Cols: []int{mEL + k, colEdge}, Vals: []float64{1, -1}, B: 0},
			)
		}
	}
	// x ≤ 1 for isolated edges not covered by a matching row with more
	// entries is already implied by the row constraints above (every
	// edge appears in its A-row and B-column constraint).

	sol, err := lp.Solve(prob, 0)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: LP relaxation did not reach optimality: %v", sol.Status)
	}
	res := &LPRelaxationResult{
		Scores:     append([]float64(nil), sol.X[:mEL]...),
		Bound:      sol.Value,
		Iterations: sol.Iterations,
	}
	// Round the scores with one exact matching and evaluate.
	tr := &Tracker{}
	if _, _, err := p.RoundHeuristic(res.Scores, matching.Exact, threads, 1, tr); err != nil {
		return nil, err
	}
	x := tr.BestMatching.Indicator(p.L)
	res.Rounded = &AlignResult{
		Matching:    tr.BestMatching,
		Objective:   tr.BestObjective,
		MatchWeight: p.MatchWeight(x, threads),
		Overlap:     p.Overlap(x, threads),
		BestIter:    1,
		Iterations:  1,
		Evaluations: 1,
	}
	return res, nil
}
