package matching

import (
	"math"

	"netalignmc/internal/bipartite"
)

// RowPlan is the weight-independent half of a family of subset
// matching problems over one bipartite graph: row r's problem is over
// the edges edges[ptr[r]:ptr[r+1]], each with a weight that changes
// from call to call. This is the row-matching step of Klau's method,
// where the rows of S are fixed for a solve and only the weights
// β/2·S + U − Uᵀ change every iteration; the plan does the vertex
// compaction once per problem instead of once per row per iteration.
//
// Within a row, the edges sharing an A vertex form a group, and the
// groups are kept in order of their first edge. A group of one edge
// whose B vertex no other edge of the row touches is isolated: no
// other column can ever compete with it, so it needs no search. Every
// other edge belongs to the row's conflict part and carries a compact
// B id, numbered within the row.
type RowPlan struct {
	rowPtr []int32 // row r's entries are [rowPtr[r], rowPtr[r+1])
	ent    []rowEntry
	maxRow int
}

// rowEntry is one edge of a row, in group order: its position in the
// row and its column code, -1 for an isolated column and otherwise
// b<<1 | s, where b is the compact B id and s is 1 on the first entry
// of a group. Isolated entries are groups of one, so bit 0 marks every
// group's first entry.
type rowEntry struct{ pos, col int32 }

// Build derives the plan of the rows (ptr, edges) over g, where edges
// holds indices into g's canonical edge order, reusing the plan's
// buffers. The plan costs two int32 per edge and one per row.
func (pl *RowPlan) Build(g *bipartite.Graph, ptr []int, edges []int32) {
	rows := len(ptr) - 1
	pl.rowPtr = grow32(pl.rowPtr, rows+1)
	if n := ptr[rows]; cap(pl.ent) < n {
		pl.ent = make([]rowEntry, n)
	} else {
		pl.ent = pl.ent[:n]
	}
	pl.maxRow = 0

	// Row-stamped vertex tables: stamp r+1 marks an entry as set for
	// row r, so nothing is reset between rows.
	aSeen := make([]int32, g.NA)
	aGroup := make([]int32, g.NA)
	bSeen := make([]int32, g.NB)
	bCount := make([]int32, g.NB)
	bID := make([]int32, g.NB)
	var size, first, fill []int32 // per group of the row
	for r := 0; r < rows; r++ {
		lo, hi := ptr[r], ptr[r+1]
		pl.rowPtr[r] = int32(lo)
		pl.maxRow = max(pl.maxRow, hi-lo)
		stamp := int32(r + 1)
		size = size[:0]
		for _, e := range edges[lo:hi] {
			a, b := g.EdgeA[e], g.EdgeB[e]
			if aSeen[a] != stamp {
				aSeen[a] = stamp
				aGroup[a] = int32(len(size))
				size = append(size, 0)
			}
			size[aGroup[a]]++
			if bSeen[b] != stamp {
				bSeen[b] = stamp
				bCount[b] = 0
				bID[b] = -1
			}
			bCount[b]++
		}
		first, fill = first[:0], fill[:0]
		next := int32(lo)
		for _, s := range size {
			first = append(first, next)
			fill = append(fill, next)
			next += s
		}
		nb := int32(0)
		for i, e := range edges[lo:hi] {
			a, b := g.EdgeA[e], g.EdgeB[e]
			grp := aGroup[a]
			j := fill[grp]
			fill[grp]++
			col := int32(-1)
			if size[grp] > 1 || bCount[b] > 1 {
				if bID[b] < 0 {
					bID[b] = nb
					nb++
				}
				col = bID[b] << 1
				if j == first[grp] {
					col |= 1
				}
			}
			pl.ent[j] = rowEntry{int32(i), col}
		}
	}
	pl.rowPtr[rows] = int32(ptr[rows])
}

// MaxRow is the length of the plan's longest row: the size a caller's
// per-row weight scratch needs.
func (pl *RowPlan) MaxRow() int { return pl.maxRow }

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// SubsetMatcher solves maximum-weight matching subproblems restricted
// to subsets of a bipartite graph's edges, reusing preallocated
// scratch across calls. It exists for the row-matching step of Klau's
// method, which solves one small matching per row of S every
// iteration: the paper preallocates "the maximum memory required for p
// threads to run matching problems on the rows of S... outside of the
// iteration", and this type is that per-thread scratch. A SubsetMatcher
// is NOT safe for concurrent use — create one per worker.
type SubsetMatcher struct {
	// GreedySubset's epoch-stamped vertex marks over the full vertex
	// ranges (O(NA+NB) memory once per worker, O(row) time per call).
	epoch          int64
	aStamp, bStamp []int64

	// SolveRow's state: the row's groups with a positive edge, by
	// first positive position, and the conflict part in CSR-by-A form.
	order   []groupKey
	rowPtr  []int
	colB    []int
	wgt     []float64
	origPos []int // row position of each conflict edge

	// Successive-shortest-path scratch, reused across calls.
	sp ssp
}

// groupKey is a group's first entry of positive weight: its row
// position and its index among the row's plan entries.
type groupKey struct {
	pos, ent int32
}

// NewSubsetMatcher returns a matcher for subproblems of a graph with
// vertex sides of size na and nb. The sizes are for GreedySubset's
// vertex marks; SolveRow reads its vertex ids from the plan.
func NewSubsetMatcher(na, nb int) *SubsetMatcher {
	return &SubsetMatcher{
		aStamp: make([]int64, na),
		bStamp: make([]int64, nb),
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

// SolveRow computes a maximum-weight matching over row r of plan pl,
// where weights[i] is the weight of the row's i-th edge. It appends
// the selected row positions to selected (which may be nil) and
// returns the new slice plus the total weight. Non-positive weights
// are never selected. Semantics match ExactSubset.
//
// The selection, its order and the value's bits are those of one
// successive-shortest-path search over the whole row, with its left
// vertices in order of first positive edge, but only the conflict part
// is searched:
//   - An isolated column's search in that solve touches only its own A
//     vertex, B vertex and dummy, so it cannot change any other search,
//     and it picks its column exactly when the weight is positive and
//     the row's largest weight is finite.
//   - The conflict part keeps the row's largest weight, its left order
//     and its edge order, so its searches run the same float operations
//     in the same heap order as on the whole row.
//   - The value is summed over both parts in that left order.
func (m *SubsetMatcher) SolveRow(pl *RowPlan, r int, weights []float64, selected []int) ([]int, float64) {
	ent := pl.ent[pl.rowPtr[r]:pl.rowPtr[r+1]]
	start := len(selected)

	// One pass in group order finds the largest weight and each
	// group's first positive entry. Isolated columns are selected on
	// the spot until the first conflict group: every group after them
	// in that order has its first edge, and so its first positive one,
	// at a later position. From there on the groups queue in m.order.
	maxW, total := 0.0, 0.0
	m.order = m.order[:0]
	sorted := true
	open := false // the current group has no positive entry yet
	for j, e := range ent {
		w := weights[e.pos]
		if w > maxW {
			maxW = w
		}
		if e.col&1 != 0 {
			open = true
		}
		if !open || w <= 0 {
			continue
		}
		open = false
		if e.col < 0 && len(m.order) == 0 {
			if w > 0 {
				selected = append(selected, int(e.pos))
				total += w
			}
			continue
		}
		if n := len(m.order); n > 0 && e.pos < m.order[n-1].pos {
			sorted = false
		}
		m.order = append(m.order, groupKey{e.pos, int32(j)})
	}
	if maxW > math.MaxFloat64 {
		// Every cost is infinite or NaN, so no search reaches any
		// vertex and nothing is matched.
		return selected[:start], 0
	}
	if len(m.order) == 0 || maxW == 0 {
		return selected, total
	}
	if !sorted {
		// Only a group whose first edge is non-positive moves, to later.
		for a := 1; a < len(m.order); a++ {
			for b := a; b > 0 && m.order[b].pos < m.order[b-1].pos; b-- {
				m.order[b], m.order[b-1] = m.order[b-1], m.order[b]
			}
		}
	}

	// Gather the conflict part's positive edges, left vertices in that
	// order, and search it.
	m.rowPtr = growInts(m.rowPtr, len(m.order)+1)
	m.colB = growInts(m.colB, len(ent))
	m.wgt = growFloats(m.wgt, len(ent))
	m.origPos = growInts(m.origPos, len(ent))
	na, nb, n := 0, 0, 0
	m.rowPtr[0] = 0
	for _, o := range m.order {
		j := int(o.ent)
		if ent[j].col < 0 {
			continue // isolated
		}
		for ; j < len(ent); j++ {
			e := ent[j]
			if j > int(o.ent) && e.col&1 != 0 {
				break // the next group
			}
			w := weights[e.pos]
			if w <= 0 {
				continue
			}
			b := int(e.col >> 1)
			nb = max(nb, b+1)
			m.colB[n] = b
			m.wgt[n] = w
			m.origPos[n] = int(e.pos)
			n++
		}
		na++
		m.rowPtr[na] = n
	}
	if na > 0 {
		m.sp.solve(na, nb, m.rowPtr, m.colB, m.wgt, maxW)
	}

	// Extract in left order: an isolated column as its own search would
	// decide, a conflict vertex's partner as the heaviest of its edges
	// to that partner (first occurrence on ties).
	a := 0
	for _, o := range m.order {
		if e := ent[o.ent]; e.col < 0 {
			if w := weights[e.pos]; w > 0 {
				selected = append(selected, int(e.pos))
				total += w
			}
			continue
		}
		b := m.sp.mateL[a]
		lo, hi := m.rowPtr[a], m.rowPtr[a+1]
		a++
		if b < 0 || b >= nb {
			continue
		}
		bestK := -1
		for k := lo; k < hi; k++ {
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
// SubsetMatcher.SolveRow: it selects edges from the subset in
// decreasing weight order, skipping conflicts. The paper deliberately
// uses exact matching for the tiny row problems of Klau's method ("we
// do not consider using the parallel approximation here"); this
// function exists to measure that design choice in the ablation
// benchmarks. It appends the selected positions to selected and
// returns the new slice plus the total weight. Ties break by input
// position for determinism.
func (m *SubsetMatcher) GreedySubset(g *bipartite.Graph, edges []int32, weights []float64, selected []int) ([]int, float64) {
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
