package core

import (
	"math"

	"netalignmc/internal/bipartite"
)

// othermaxRowsRange applies the paper's othermaxrow function to the
// rows [lo, hi), writing into dst: for each vertex i ∈ V_A and each
// incident edge (i,i'),
//
//	dst[(i,i')] = bound_{0,∞}( max over (i,k') ∈ E_L, k' ≠ i' of g[(i,k')] )
//
// i.e. every edge in a row receives the row maximum, except the
// maximal edge itself which receives the second largest value, clamped
// below at zero. Rows with a single edge get 0 (the max over an empty
// set is -∞, bounded to 0). Rows are independent, so the solver
// dispatches disjoint row ranges over its worker pool.
func othermaxRowsRange(dst, g []float64, l *bipartite.Graph, lo, hi int) {
	for a := lo; a < hi; a++ {
		elo, ehi := l.RowRange(a)
		max1, max2 := math.Inf(-1), math.Inf(-1)
		arg := -1
		for e := elo; e < ehi; e++ {
			v := g[e]
			if v > max1 {
				max2 = max1
				max1 = v
				arg = e
			} else if v > max2 {
				max2 = v
			}
		}
		for e := elo; e < ehi; e++ {
			other := max1
			if e == arg {
				other = max2
			}
			if other < 0 {
				other = 0
			}
			dst[e] = other
		}
	}
}

// othermaxColsRange is othermaxcol: the same computation over the
// columns [lo, hi) (V_B vertices) of L, using the precomputed column
// view.
func othermaxColsRange(dst, g []float64, l *bipartite.Graph, lo, hi int) {
	for b := lo; b < hi; b++ {
		edges := l.ColEdgesOf(b)
		max1, max2 := math.Inf(-1), math.Inf(-1)
		arg := -1
		for _, e := range edges {
			v := g[e]
			if v > max1 {
				max2 = max1
				max1 = v
				arg = e
			} else if v > max2 {
				max2 = v
			}
		}
		for _, e := range edges {
			other := max1
			if e == arg {
				other = max2
			}
			if other < 0 {
				other = 0
			}
			dst[e] = other
		}
	}
}
