package matching

import (
	"math"

	"netalignmc/internal/bipartite"
)

// Exact computes a maximum-weight bipartite matching (not necessarily
// perfect or maximum-cardinality) by successive shortest augmenting
// paths with potentials.
//
// The reduction: every a ∈ V_A gets a private dummy partner reachable
// by a zero-weight edge, making a left-perfect matching always exist;
// edge costs are maxW − w ≥ 0 so Dijkstra applies with zero initial
// potentials. Because every left vertex is matched (possibly to its
// dummy) in every feasible solution, the constant shift maxW cancels
// and minimizing cost maximizes Σw over the real matched edges. Edges
// with w ≤ 0 are never preferred over the dummy, so the result uses
// only positive-weight edges, which is what a maximum-weight matching
// does.
//
// Cost: each of the |V_A| searches resets and re-prices only the right
// vertices it reached, so a call costs O(|V_A|+|V_B|) once plus the
// Dijkstra work of the searches, and allocates a constant number of
// buffers regardless of graph size.
//
// The threads argument is accepted for Matcher compatibility but
// ignored: exact augmenting-path matching is the inherently serial
// baseline whose lack of concurrency motivates the paper.
func Exact(g *bipartite.Graph, threads int) *Result {
	_ = threads
	r := emptyResult(g)
	na, nb := g.NA, g.NB
	if na == 0 || nb == 0 || g.NumEdges() == 0 {
		return r
	}

	maxW := 0.0
	for _, w := range g.W {
		if w > maxW {
			maxW = w
		}
	}
	var sp ssp
	sp.solve(na, nb, g.RowPtr, g.EdgeB, g.W, maxW)

	for a := 0; a < na; a++ {
		b := sp.mateL[a]
		if b < 0 || b >= nb {
			continue // unmatched or matched to its dummy
		}
		e, ok := g.Find(a, b)
		if !ok || g.W[e] <= 0 {
			continue // zero-weight tie with the dummy: leave unmatched
		}
		r.MateA[a] = b
		r.MateB[b] = a
		r.Weight += g.W[e]
		r.Card++
	}
	return r
}

// ssp is the successive-shortest-path solver behind Exact and
// SubsetMatcher, with buffers reusable across calls. Right vertices
// are the real ones [0, nb) followed by one dummy per left vertex, the
// dummy of a at nb+a.
type ssp struct {
	potL, potR   []float64
	mateL, mateR []int // partner, -1 if none yet
	dist         []float64
	prevL        []int
	done         []bool
	// touched lists the right vertices the current search reached
	// (finite dist); only they are re-priced and reset afterwards.
	touched []int
	heap    []pairItem
}

// solve matches the na left vertices of the CSR graph (rowPtr, col, w)
// with costs maxW − w and a dummy edge of cost maxW per left vertex.
// Afterwards mateL[a] < nb names a's real partner.
func (m *ssp) solve(na, nb int, rowPtr, col []int, w []float64, maxW float64) {
	nr := nb + na
	m.potL = growFloats(m.potL, na)
	m.potR = growFloats(m.potR, nr)
	m.mateL = growInts(m.mateL, na)
	m.mateR = growInts(m.mateR, nr)
	m.dist = growFloats(m.dist, nr)
	m.prevL = growInts(m.prevL, nr)
	m.done = growBools(m.done, nr)
	if cap(m.touched) < nr {
		m.touched = make([]int, 0, nr)
	}
	if cap(m.heap) < nr {
		m.heap = make([]pairItem, 0, nr)
	}
	for i := 0; i < na; i++ {
		m.potL[i] = 0
		m.mateL[i] = -1
	}
	for j := 0; j < nr; j++ {
		m.potR[j] = 0
		m.mateR[j] = -1
		m.dist[j] = math.Inf(1)
		m.prevL[j] = -1
		m.done[j] = false
	}

	for s := 0; s < na; s++ {
		// Dijkstra over right vertices from the free left vertex s.
		m.touched = m.touched[:0]
		m.heap = m.heap[:0]
		m.relax(s, 0, nb, rowPtr, col, w, maxW)
		end := -1
		for len(m.heap) > 0 {
			it := m.pop()
			j := it.key
			if m.done[j] || it.dist > m.dist[j] {
				continue
			}
			m.done[j] = true
			if m.mateR[j] == -1 {
				end = j
				break
			}
			m.relax(m.mateR[j], m.dist[j], nb, rowPtr, col, w, maxW)
		}
		// end == -1 is unreachable: the dummy partner guarantees a free
		// right vertex is always reachable.
		if end >= 0 {
			// Potential update keeps reduced costs nonnegative and
			// makes the augmenting path tight. Every potR[j] and
			// potL[mateR[j]] changes at most once, so visiting only the
			// touched vertices, in any order, gives the same bits as a
			// full scan.
			delta := m.dist[end]
			m.potL[s] += delta
			for _, j := range m.touched {
				if !m.done[j] || j == end {
					continue
				}
				m.potR[j] += m.dist[j] - delta
				m.potL[m.mateR[j]] += delta - m.dist[j]
			}
			// Augment along prevL back to s.
			j := end
			for {
				i := m.prevL[j]
				m.mateR[j] = i
				j, m.mateL[i] = m.mateL[i], j
				if i == s {
					break
				}
			}
		}
		for _, j := range m.touched {
			m.dist[j] = math.Inf(1)
			m.prevL[j] = -1
			m.done[j] = false
		}
	}
}

// relax pushes the edges of left vertex i (plus its dummy) into the
// heap from path length base.
func (m *ssp) relax(i int, base float64, nb int, rowPtr, col []int, w []float64, maxW float64) {
	for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
		j := col[e]
		if m.done[j] {
			continue
		}
		nd := base + (maxW - w[e]) - m.potL[i] - m.potR[j]
		m.lower(j, i, nd)
	}
	if dj := nb + i; !m.done[dj] {
		m.lower(dj, i, base+maxW-m.potL[i]-m.potR[dj])
	}
}

// lower records a path of length nd to right vertex j through left
// vertex i if it beats the best known one.
func (m *ssp) lower(j, i int, nd float64) {
	if nd < m.dist[j] {
		if math.IsInf(m.dist[j], 1) {
			m.touched = append(m.touched, j)
		}
		m.dist[j] = nd
		m.prevL[j] = i
		m.push(pairItem{nd, j})
	}
}

// pairItem is a (distance, right-vertex) heap entry with lazy deletion.
type pairItem struct {
	dist float64
	key  int
}

// push and pop are container/heap's Push and Pop on a typed slice,
// with the same sift order, so equal distances pop in the same order
// without boxing every entry into an interface.
func (m *ssp) push(it pairItem) {
	h := append(m.heap, it)
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	m.heap = h
}

func (m *ssp) pop() pairItem {
	h := m.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	m.heap = h[:n]
	return h[n]
}

// ExactSubset solves a maximum-weight matching restricted to a subset
// of L's edges with caller-provided weights: pick a sub-multiset of
// edges[i] (with weight weights[i]) that forms a matching in L and
// maximizes total weight. It returns the selected positions into the
// edges slice and the total weight. This is the per-row matching of
// Klau's method (Listing 1, Step 1), where each row of S induces a
// small matching problem over the nonzero columns.
//
// The subproblem is compacted to its touched vertices, so cost depends
// only on the row size, and solved exactly — the paper always uses
// exact matching for the row problems because they are tiny and the
// parallelism is across rows.
func ExactSubset(g *bipartite.Graph, edges []int, weights []float64) (selected []int, value float64) {
	if len(edges) == 0 {
		return nil, 0
	}
	// Compact vertex ids.
	aID := make(map[int]int)
	bID := make(map[int]int)
	type subEdge struct {
		a, b, pos int
		w         float64
	}
	subEdges := make([]subEdge, 0, len(edges))
	for i, e := range edges {
		w := weights[i]
		if w <= 0 {
			continue
		}
		a, b := g.EdgeA[e], g.EdgeB[e]
		ca, ok := aID[a]
		if !ok {
			ca = len(aID)
			aID[a] = ca
		}
		cb, ok := bID[b]
		if !ok {
			cb = len(bID)
			bID[b] = cb
		}
		subEdges = append(subEdges, subEdge{ca, cb, i, w})
	}
	if len(subEdges) == 0 {
		return nil, 0
	}
	we := make([]bipartite.WeightedEdge, len(subEdges))
	for i, se := range subEdges {
		we[i] = bipartite.WeightedEdge{A: se.a, B: se.b, W: se.w}
	}
	sub, err := bipartite.New(len(aID), len(bID), we)
	if err != nil {
		return nil, 0 // cannot happen: ids are dense by construction
	}
	res := Exact(sub, 1)
	// Map matched pairs back to input positions, resolving duplicate
	// (a,b) inputs to the heaviest position (bipartite.New keeps max).
	for _, se := range subEdges {
		if res.MateA[se.a] == se.b {
			e, _ := sub.Find(se.a, se.b)
			if sub.W[e] == se.w {
				selected = append(selected, se.pos)
				value += se.w
				res.MateA[se.a] = -1 - res.MateA[se.a] // consume so dups don't double count
			}
		}
	}
	return selected, value
}
