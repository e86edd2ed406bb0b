package matching

import (
	"math"
	"math/rand"
	"testing"

	"netalignmc/internal/bipartite"
)

// refSubsetMatcher is SubsetMatcher as it was before the row plan:
// every call gathers the row's edges, compacts their vertices with
// epoch stamps and builds a CSR before the search. SolveRow must
// reproduce its Solve bit for bit.
type refSubsetMatcher struct {
	epoch          int64
	aStamp, bStamp []int64
	aID, bID       []int

	// Compact subproblem in CSR-by-A form.
	subNA, subNB int
	rowPtr       []int
	colB         []int
	wgt          []float64
	origPos      []int // input position of each compact edge
	countScratch []int

	// Successive-shortest-path scratch, reused across calls.
	sp ssp
}

func newRefSubsetMatcher(na, nb int) *refSubsetMatcher {
	return &refSubsetMatcher{
		aStamp: make([]int64, na),
		bStamp: make([]int64, nb),
		aID:    make([]int, na),
		bID:    make([]int, nb),
	}
}

// Solve computes a maximum-weight matching over the sub-multiset of
// g's edges given by edges (indices into g's canonical edge order)
// with the caller's weights. It appends the selected input positions
// to selected (which may be nil) and returns the new slice plus the
// total weight. Non-positive weights are never selected. Semantics
// match ExactSubset; only the allocation behavior differs.
func (m *refSubsetMatcher) Solve(g *bipartite.Graph, edges []int, weights []float64, selected []int) ([]int, float64) {
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

// rowWeightLevels are the weights the row tests draw from: ties,
// zero, negative and vanishing weights that leave maxW − w == maxW.
var rowWeightLevels = []float64{-1, 0, 1e-18, 0.5, 1, 1, 2, 3}

// randomRows draws rows of edges of g (positions may repeat an edge
// and come in any order) with weights from rowWeightLevels or a
// continuous range, and rarely +Inf or NaN. Some rows are empty or all non-positive, and in
// some the first edge of every A vertex is non-positive so that later
// edges reorder the A vertices' first positive appearances.
func randomRows(rng *rand.Rand, g *bipartite.Graph, rows, maxLen int) (ptr, edges []int, weights []float64) {
	ptr = []int{0}
	for r := 0; r < rows; r++ {
		n := 0
		if g.NumEdges() > 0 {
			n = rng.Intn(maxLen + 1)
		}
		lo := len(edges)
		for i := 0; i < n; i++ {
			edges = append(edges, rng.Intn(g.NumEdges()))
			w := rowWeightLevels[rng.Intn(len(rowWeightLevels))]
			switch rng.Intn(100) {
			case 0:
				w = math.Inf(1)
			case 1:
				w = math.NaN()
			default:
				if rng.Intn(4) == 0 {
					w = rng.Float64()*4 - 1
				}
			}
			weights = append(weights, w)
		}
		switch rng.Intn(8) {
		case 0: // all non-positive
			for k := lo; k < len(edges); k++ {
				weights[k] = -rng.Float64()
			}
		case 1, 2: // each A vertex's first edge non-positive
			seen := map[int]bool{}
			for k := lo; k < len(edges); k++ {
				if a := g.EdgeA[edges[k]]; !seen[a] {
					seen[a] = true
					weights[k] = []float64{0, -1}[rng.Intn(2)]
				}
			}
		}
		ptr = append(ptr, len(edges))
	}
	return ptr, edges, weights
}

// checkRowsMatchReference solves every row of (ptr, edges) with the
// plan and with the reference and fails on any difference in the
// selected positions, their order, or the value's bits.
func checkRowsMatchReference(t *testing.T, g *bipartite.Graph, ptr, edges []int, weights []float64, sm *SubsetMatcher, ref *refSubsetMatcher) {
	t.Helper()
	var pl RowPlan
	pl.Build(g, ptr, int32s(edges))
	var got, want []int
	for r := 0; r+1 < len(ptr); r++ {
		lo, hi := ptr[r], ptr[r+1]
		var gotV, wantV float64
		got, gotV = sm.SolveRow(&pl, r, weights[lo:hi], got[:0])
		want, wantV = ref.Solve(g, edges[lo:hi], weights[lo:hi], want[:0])
		same := math.Float64bits(gotV) == math.Float64bits(wantV) && len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		if !same {
			t.Fatalf("row %d (edges %v, weights %v): plan selects %v value %v, reference %v value %v",
				r, edges[lo:hi], weights[lo:hi], got, gotV, want, wantV)
		}
	}
}

func TestRowPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sm := NewSubsetMatcher(0, 0)
	for trial := 0; trial < 400; trial++ {
		na, nb := 1+rng.Intn(10), 1+rng.Intn(10)
		g := tiedGraph(rng, na, nb, []float64{0.2, 0.5, 0.9}[trial%3], 3)
		ref := newRefSubsetMatcher(na, nb)
		ptr, edges, weights := randomRows(rng, g, 50, 4+trial%12)
		checkRowsMatchReference(t, g, ptr, edges, weights, sm, ref)
	}
}

func FuzzRowPlanMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{0, 4, 1, 3, 4, 2, 255, 0, 7, 1, 2, 0, 3, 5})
	f.Add(uint8(2), uint8(5), []byte{5, 0, 0, 4, 9, 1, 255, 255, 1, 2, 6, 2, 2, 3})
	f.Add(uint8(6), uint8(1), []byte{0, 1, 1, 1, 2, 1, 3, 0, 4, 254, 5, 253})
	f.Add(uint8(4), uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, na, nb uint8, data []byte) {
		// The graph is complete bipartite: a row is any multiset of
		// (a, b) pairs. Each record is (edge, weight) bytes; edge 255
		// ends the row. Weight bytes 254 and 253 give +Inf and NaN.
		var edges []bipartite.WeightedEdge
		for a := 0; a < 1+int(na%8); a++ {
			for b := 0; b < 1+int(nb%8); b++ {
				edges = append(edges, bipartite.WeightedEdge{A: a, B: b, W: 1})
			}
		}
		g, err := bipartite.New(1+int(na%8), 1+int(nb%8), edges)
		if err != nil {
			t.Fatal(err)
		}
		ptr := []int{0}
		var rowEdges []int
		var weights []float64
		for i := 0; i+1 < len(data) && i < 1024; i += 2 {
			if data[i] == 255 {
				ptr = append(ptr, len(rowEdges))
				continue
			}
			rowEdges = append(rowEdges, int(data[i])%g.NumEdges())
			var w float64
			switch ws := data[i+1]; {
			case ws == 254:
				w = math.Inf(1)
			case ws == 253:
				w = math.NaN()
			case ws < 128:
				w = rowWeightLevels[int(ws)%len(rowWeightLevels)]
			default:
				w = float64(ws)/32 - 5
			}
			weights = append(weights, w)
		}
		ptr = append(ptr, len(rowEdges))
		checkRowsMatchReference(t, g, ptr, rowEdges, weights, NewSubsetMatcher(g.NA, g.NB), newRefSubsetMatcher(g.NA, g.NB))
	})
}
