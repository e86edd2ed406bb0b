// Package bipartite implements the weighted bipartite candidate graph
// L = (V_A ∪ V_B, E_L, w) of the network alignment problem.
//
// Every vector the alignment iterations manipulate (w, x, y, z, d, w̄)
// is indexed by the edges of L in one fixed canonical order: row-major,
// i.e. sorted by (a, b) where a ∈ V_A and b ∈ V_B. The row view (edges
// grouped by their V_A endpoint) is therefore implicit in the edge
// arrays; the column view (grouped by V_B endpoint) is a precomputed
// permutation, mirroring how the paper's implementation uses one CSR
// edge order plus permutations instead of materializing both layouts.
package bipartite

import (
	"fmt"
	"sort"
)

// Graph is an immutable weighted bipartite graph between vertex sets
// of sizes NA and NB. Edge e connects EdgeA[e] ∈ [0,NA) with
// EdgeB[e] ∈ [0,NB) and has weight W[e]. Edges are sorted by
// (EdgeA, EdgeB), so the edges incident to a ∈ V_A are the contiguous
// range RowPtr[a]..RowPtr[a+1]. ColEdges lists edge indices grouped by
// V_B endpoint: the edges incident to b ∈ V_B are
// ColEdges[ColPtr[b]:ColPtr[b+1]], sorted by their V_A endpoint.
type Graph struct {
	NA, NB int
	EdgeA  []int
	EdgeB  []int
	W      []float64

	RowPtr   []int // length NA+1
	ColPtr   []int // length NB+1
	ColEdges []int // length NumEdges
}

// WeightedEdge is an input edge for the builder.
type WeightedEdge struct {
	A, B int
	W    float64
}

// New builds the bipartite graph from an edge list. Duplicate (a,b)
// pairs keep the maximum weight (candidate-link lists from text
// matching may repeat pairs; keeping the best score matches how the
// alignment inputs are prepared).
func New(na, nb int, edges []WeightedEdge) (*Graph, error) {
	if na < 0 || nb < 0 {
		return nil, fmt.Errorf("bipartite: negative side size %d, %d", na, nb)
	}
	for _, e := range edges {
		if e.A < 0 || e.A >= na || e.B < 0 || e.B >= nb {
			return nil, fmt.Errorf("bipartite: edge (%d,%d) out of range for sides %d,%d", e.A, e.B, na, nb)
		}
	}
	sorted := append([]WeightedEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].A != sorted[j].A {
			return sorted[i].A < sorted[j].A
		}
		return sorted[i].B < sorted[j].B
	})
	merged := sorted[:0]
	for _, e := range sorted {
		if n := len(merged); n > 0 && merged[n-1].A == e.A && merged[n-1].B == e.B {
			if e.W > merged[n-1].W {
				merged[n-1].W = e.W
			}
			continue
		}
		merged = append(merged, e)
	}

	g := &Graph{
		NA:     na,
		NB:     nb,
		EdgeA:  make([]int, len(merged)),
		EdgeB:  make([]int, len(merged)),
		W:      make([]float64, len(merged)),
		RowPtr: make([]int, na+1),
		ColPtr: make([]int, nb+1),
	}
	for e, we := range merged {
		g.EdgeA[e] = we.A
		g.EdgeB[e] = we.B
		g.W[e] = we.W
		g.RowPtr[we.A+1]++
		g.ColPtr[we.B+1]++
	}
	for a := 0; a < na; a++ {
		g.RowPtr[a+1] += g.RowPtr[a]
	}
	for b := 0; b < nb; b++ {
		g.ColPtr[b+1] += g.ColPtr[b]
	}
	g.ColEdges = make([]int, len(merged))
	next := append([]int(nil), g.ColPtr[:nb]...)
	for e := range merged {
		b := g.EdgeB[e]
		g.ColEdges[next[b]] = e
		next[b]++
	}
	return g, nil
}

// NumEdges returns |E_L|.
func (g *Graph) NumEdges() int { return len(g.W) }

// DegreeA returns the number of edges incident to a ∈ V_A.
func (g *Graph) DegreeA(a int) int { return g.RowPtr[a+1] - g.RowPtr[a] }

// DegreeB returns the number of edges incident to b ∈ V_B.
func (g *Graph) DegreeB(b int) int { return g.ColPtr[b+1] - g.ColPtr[b] }

// RowRange returns the half-open edge-index range of edges incident to
// a ∈ V_A.
func (g *Graph) RowRange(a int) (lo, hi int) { return g.RowPtr[a], g.RowPtr[a+1] }

// ColEdgesOf returns the edge indices incident to b ∈ V_B, sorted by
// their V_A endpoint. The slice aliases internal storage.
func (g *Graph) ColEdgesOf(b int) []int { return g.ColEdges[g.ColPtr[b]:g.ColPtr[b+1]] }

// Find returns the edge index of (a, b) and whether it exists, by
// binary search within a's edge range.
func (g *Graph) Find(a, b int) (int, bool) {
	lo, hi := g.RowRange(a)
	i := lo + sort.Search(hi-lo, func(i int) bool { return g.EdgeB[lo+i] >= b })
	if i < hi && g.EdgeB[i] == b {
		return i, true
	}
	return -1, false
}

// HasEdge reports whether (a, b) ∈ E_L.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || b < 0 || a >= g.NA || b >= g.NB {
		return false
	}
	_, ok := g.Find(a, b)
	return ok
}

// Validate checks structural invariants: edge sorting, pointer
// consistency and column-view agreement with the edge arrays.
func (g *Graph) Validate() error {
	m := g.NumEdges()
	if len(g.EdgeA) != m || len(g.EdgeB) != m || len(g.ColEdges) != m {
		return fmt.Errorf("bipartite: inconsistent array lengths")
	}
	if g.RowPtr[0] != 0 || g.RowPtr[g.NA] != m || g.ColPtr[0] != 0 || g.ColPtr[g.NB] != m {
		return fmt.Errorf("bipartite: pointer endpoints wrong")
	}
	for e := 0; e < m; e++ {
		if g.EdgeA[e] < 0 || g.EdgeA[e] >= g.NA || g.EdgeB[e] < 0 || g.EdgeB[e] >= g.NB {
			return fmt.Errorf("bipartite: edge %d out of range", e)
		}
		if e > 0 {
			if g.EdgeA[e-1] > g.EdgeA[e] ||
				(g.EdgeA[e-1] == g.EdgeA[e] && g.EdgeB[e-1] >= g.EdgeB[e]) {
				return fmt.Errorf("bipartite: edges not sorted at %d", e)
			}
		}
	}
	for a := 0; a < g.NA; a++ {
		lo, hi := g.RowRange(a)
		for e := lo; e < hi; e++ {
			if g.EdgeA[e] != a {
				return fmt.Errorf("bipartite: row view of %d contains edge of %d", a, g.EdgeA[e])
			}
		}
	}
	seen := make([]bool, m)
	for b := 0; b < g.NB; b++ {
		prev := -1
		for _, e := range g.ColEdgesOf(b) {
			if e < 0 || e >= m || seen[e] {
				return fmt.Errorf("bipartite: column view repeats or exceeds edges")
			}
			seen[e] = true
			if g.EdgeB[e] != b {
				return fmt.Errorf("bipartite: column view of %d contains edge of %d", b, g.EdgeB[e])
			}
			if g.EdgeA[e] <= prev {
				return fmt.Errorf("bipartite: column view of %d not sorted by V_A endpoint", b)
			}
			prev = g.EdgeA[e]
		}
	}
	return nil
}

// WithWeights returns a graph sharing this graph's structure with a
// different weight vector (in the canonical edge order). Used to pose
// matching subproblems over L with iteration-dependent weights without
// copying the structure.
func (g *Graph) WithWeights(w []float64) (*Graph, error) {
	if len(w) != g.NumEdges() {
		return nil, fmt.Errorf("bipartite: weight vector length %d != %d edges", len(w), g.NumEdges())
	}
	h := *g
	h.W = w
	return &h, nil
}
