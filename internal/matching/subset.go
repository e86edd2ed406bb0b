package matching

import "netalignmc/internal/bipartite"

// SubsetMatcher solves maximum-weight matching subproblems restricted
// to subsets of a bipartite graph's edges, reusing preallocated
// scratch across calls. It exists for the row-matching step of Klau's
// method, which solves one small matching per row of S every
// iteration: the paper preallocates "the maximum memory required for p
// threads to run matching problems on the rows of S... outside of the
// iteration", and this type is that per-thread scratch. A SubsetMatcher
// is NOT safe for concurrent use — create one per worker.
//
// Vertex compaction uses epoch-stamped arrays over the full vertex
// ranges (O(NA+NB) memory once per worker, O(row) time per call), so a
// call allocates nothing after warm-up.
type SubsetMatcher struct {
	epoch          int64
	aStamp, bStamp []int64
	aID, bID       []int

	// Compact subproblem in CSR-by-A form.
	subNA, subNB int
	rowPtr       []int
	colB         []int
	wgt          []float64
	origPos      []int // input position of each compact edge
	aOrig        []int // original A id per compact A vertex (diagnostics)
	countScratch []int

	// Successive-shortest-path scratch, reused across calls.
	sp ssp
}

// NewSubsetMatcher returns a matcher for subproblems of a graph with
// vertex sides of size na and nb.
func NewSubsetMatcher(na, nb int) *SubsetMatcher {
	return &SubsetMatcher{
		aStamp: make([]int64, na),
		bStamp: make([]int64, nb),
		aID:    make([]int, na),
		bID:    make([]int, nb),
	}
}

// grow ensures slice capacity without reallocating on every call.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Solve computes a maximum-weight matching over the sub-multiset of
// g's edges given by edges (indices into g's canonical edge order)
// with the caller's weights. It appends the selected input positions
// to selected (which may be nil) and returns the new slice plus the
// total weight. Non-positive weights are never selected. Semantics
// match ExactSubset; only the allocation behavior differs.
func (m *SubsetMatcher) Solve(g *bipartite.Graph, edges []int, weights []float64, selected []int) ([]int, float64) {
	if len(edges) == 0 {
		return selected, 0
	}
	m.epoch++

	// Compact the touched vertices and count positive edges.
	nEdges := 0
	maxW := 0.0
	m.subNA, m.subNB = 0, 0
	for i, e := range edges {
		w := weights[i]
		if w <= 0 {
			continue
		}
		nEdges++
		if w > maxW {
			maxW = w
		}
		a, b := g.EdgeA[e], g.EdgeB[e]
		if m.aStamp[a] != m.epoch {
			m.aStamp[a] = m.epoch
			m.aID[a] = m.subNA
			m.subNA++
		}
		if m.bStamp[b] != m.epoch {
			m.bStamp[b] = m.epoch
			m.bID[b] = m.subNB
			m.subNB++
		}
	}
	if nEdges == 0 {
		return selected, 0
	}

	// Build the compact CSR (counting sort by compact A id).
	na, nb := m.subNA, m.subNB
	m.rowPtr = growInts(m.rowPtr, na+1)
	m.countScratch = growInts(m.countScratch, na)
	for i := range m.countScratch {
		m.countScratch[i] = 0
	}
	for i, e := range edges {
		if weights[i] <= 0 {
			continue
		}
		m.countScratch[m.aID[g.EdgeA[e]]]++
	}
	m.rowPtr[0] = 0
	for a := 0; a < na; a++ {
		m.rowPtr[a+1] = m.rowPtr[a] + m.countScratch[a]
		m.countScratch[a] = m.rowPtr[a]
	}
	m.colB = growInts(m.colB, nEdges)
	m.wgt = growFloats(m.wgt, nEdges)
	m.origPos = growInts(m.origPos, nEdges)
	for i, e := range edges {
		w := weights[i]
		if w <= 0 {
			continue
		}
		ca := m.aID[g.EdgeA[e]]
		slot := m.countScratch[ca]
		m.countScratch[ca]++
		m.colB[slot] = m.bID[g.EdgeB[e]]
		m.wgt[slot] = w
		m.origPos[slot] = i
	}

	// Successive shortest paths with potentials; costs are maxW−w ≥ 0,
	// each left vertex has a private dummy right vertex of cost maxW.
	m.sp.solve(na, nb, m.rowPtr, m.colB, m.wgt, maxW)

	// Extract: for each matched compact pair, pick the heaviest input
	// position with that pair (first occurrence after CSR fill order).
	total := 0.0
	for a := 0; a < na; a++ {
		b := m.sp.mateL[a]
		if b < 0 || b >= nb {
			continue
		}
		bestK := -1
		for k := m.rowPtr[a]; k < m.rowPtr[a+1]; k++ {
			if m.colB[k] == b && (bestK < 0 || m.wgt[k] > m.wgt[bestK]) {
				bestK = k
			}
		}
		if bestK >= 0 && m.wgt[bestK] > 0 {
			selected = append(selected, m.origPos[bestK])
			total += m.wgt[bestK]
		}
	}
	return selected, total
}

// GreedySubset is the half-approximate counterpart of
// SubsetMatcher.Solve: it selects edges from the subset in decreasing
// weight order, skipping conflicts. The paper deliberately uses exact
// matching for the tiny row problems of Klau's method ("we do not
// consider using the parallel approximation here"); this function
// exists to measure that design choice in the ablation benchmarks.
// It appends the selected positions to selected and returns the new
// slice plus the total weight. Ties break by input position for
// determinism.
func (m *SubsetMatcher) GreedySubset(g *bipartite.Graph, edges []int, weights []float64, selected []int) ([]int, float64) {
	if len(edges) == 0 {
		return selected, 0
	}
	m.epoch++
	// order holds input positions of positive edges, insertion-sorted
	// by decreasing weight (rows are tiny, so O(k^2) beats sort.Slice's
	// allocation).
	m.origPos = m.origPos[:0]
	for i := range edges {
		if weights[i] <= 0 {
			continue
		}
		m.origPos = append(m.origPos, i)
		for j := len(m.origPos) - 1; j > 0; j-- {
			a, b := m.origPos[j-1], m.origPos[j]
			if weights[a] > weights[b] || (weights[a] == weights[b] && a < b) {
				break
			}
			m.origPos[j-1], m.origPos[j] = m.origPos[j], m.origPos[j-1]
		}
	}
	total := 0.0
	for _, i := range m.origPos {
		e := edges[i]
		a, b := g.EdgeA[e], g.EdgeB[e]
		if m.aStamp[a] == m.epoch || m.bStamp[b] == m.epoch {
			continue // endpoint already used
		}
		m.aStamp[a] = m.epoch
		m.bStamp[b] = m.epoch
		selected = append(selected, i)
		total += weights[i]
	}
	return selected, total
}
