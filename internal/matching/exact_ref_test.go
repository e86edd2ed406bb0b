package matching

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"netalignmc/internal/bipartite"
)

// exactReference is Exact as it was before the searches reset only the
// vertices they touch and the heap stopped boxing its entries: a full
// O(|V_A|+|V_B|) reset and re-pricing per search over container/heap.
// Exact must reproduce it bit for bit.
func exactReference(g *bipartite.Graph, threads int) *Result {
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
	// Right-side vertex space: real vertices [0, nb), dummies
	// [nb, nb+na) with dummy of a at nb+a.
	nr := nb + na
	cost := func(e int) float64 { return maxW - g.W[e] } // real edge cost
	dummyCost := maxW

	potL := make([]float64, na)
	potR := make([]float64, nr)
	mateL := make([]int, na) // right vertex matched to a, -1 if none yet
	mateR := make([]int, nr) // left vertex matched to right, -1 if none
	for i := range mateL {
		mateL[i] = -1
	}
	for j := range mateR {
		mateR[j] = -1
	}

	dist := make([]float64, nr)
	prevL := make([]int, nr)
	done := make([]bool, nr)

	pq := &refPairHeap{}
	for s := 0; s < na; s++ {
		// Dijkstra over right vertices from the free left vertex s.
		for j := range dist {
			dist[j] = math.Inf(1)
			prevL[j] = -1
			done[j] = false
		}
		pq.items = pq.items[:0]
		relax := func(i int, base float64) {
			lo, hi := g.RowRange(i)
			for e := lo; e < hi; e++ {
				j := g.EdgeB[e]
				if done[j] {
					continue
				}
				nd := base + cost(e) - potL[i] - potR[j]
				if nd < dist[j] {
					dist[j] = nd
					prevL[j] = i
					heap.Push(pq, pairItem{nd, j})
				}
			}
			dj := nb + i
			if !done[dj] {
				nd := base + dummyCost - potL[i] - potR[dj]
				if nd < dist[dj] {
					dist[dj] = nd
					prevL[dj] = i
					heap.Push(pq, pairItem{nd, dj})
				}
			}
		}
		relax(s, 0)
		end := -1
		for pq.Len() > 0 {
			it := heap.Pop(pq).(pairItem)
			j := it.key
			if done[j] || it.dist > dist[j] {
				continue
			}
			done[j] = true
			if mateR[j] == -1 {
				end = j
				break
			}
			relax(mateR[j], dist[j])
		}
		if end == -1 {
			// Unreachable: the dummy partner guarantees a free right
			// vertex is always reachable.
			continue
		}
		// Potential update keeps reduced costs nonnegative and makes
		// the augmenting path tight.
		delta := dist[end]
		potL[s] += delta
		for j := 0; j < nr; j++ {
			if !done[j] || j == end {
				continue
			}
			potR[j] += dist[j] - delta
			potL[mateR[j]] += delta - dist[j]
		}
		// Augment along prevL back to s.
		j := end
		for {
			i := prevL[j]
			mateR[j] = i
			j, mateL[i] = mateL[i], j
			if i == s {
				break
			}
		}
	}

	for a := 0; a < na; a++ {
		b := mateL[a]
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

type refPairHeap struct{ items []pairItem }

func (h *refPairHeap) Len() int           { return len(h.items) }
func (h *refPairHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *refPairHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refPairHeap) Push(x interface{}) { h.items = append(h.items, x.(pairItem)) }
func (h *refPairHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// tiedGraph draws a random bipartite graph whose weights come from a
// small integer set (so shortest-path ties are everywhere), including
// zero and negative weights, with some empty rows.
func tiedGraph(rng *rand.Rand, na, nb int, density float64, levels int) *bipartite.Graph {
	var edges []bipartite.WeightedEdge
	for a := 0; a < na; a++ {
		if rng.Intn(8) == 0 {
			continue // empty row
		}
		for b := 0; b < nb; b++ {
			if rng.Float64() < density {
				w := float64(rng.Intn(levels) - 1) // -1, 0, 1, ...
				if rng.Intn(4) == 0 {
					w = rng.Float64()*6 - 1
				}
				edges = append(edges, bipartite.WeightedEdge{A: a, B: b, W: w})
			}
		}
	}
	g, err := bipartite.New(na, nb, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sameResult reports whether two matchings agree bit for bit.
func sameResult(got, want *Result) bool {
	if got.Card != want.Card || math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
		len(got.MateA) != len(want.MateA) || len(got.MateB) != len(want.MateB) {
		return false
	}
	for i := range got.MateA {
		if got.MateA[i] != want.MateA[i] {
			return false
		}
	}
	for i := range got.MateB {
		if got.MateB[i] != want.MateB[i] {
			return false
		}
	}
	return true
}

func TestExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 3000; trial++ {
		na, nb := rng.Intn(24), rng.Intn(24) // na ≠ nb and empty sides included
		density := []float64{0.05, 0.2, 0.5, 0.9}[trial%4]
		levels := 2 + trial%5
		g := tiedGraph(rng, na, nb, density, levels)
		got, want := Exact(g, 1), exactReference(g, 1)
		if !sameResult(got, want) {
			t.Fatalf("trial %d (na=%d nb=%d): Exact %v w=%v card=%d, reference %v w=%v card=%d",
				trial, na, nb, got.MateA, got.Weight, got.Card, want.MateA, want.Weight, want.Card)
		}
	}
	// Continuous weights, larger graphs.
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 60+rng.Intn(80), 60+rng.Intn(80), 0.08)
		if got, want := Exact(g, 1), exactReference(g, 1); !sameResult(got, want) {
			t.Fatalf("continuous trial %d differs", trial)
		}
	}
}

func FuzzExactMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(3), uint8(40))
	f.Add(int64(2), uint8(16), uint8(3), uint8(2), uint8(200))
	f.Add(int64(3), uint8(0), uint8(9), uint8(4), uint8(100))
	f.Add(int64(4), uint8(30), uint8(30), uint8(6), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, na, nb, levels, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := tiedGraph(rng, int(na%48), int(nb%48), float64(density)/255, 2+int(levels%8))
		if got, want := Exact(g, 1), exactReference(g, 1); !sameResult(got, want) {
			t.Fatalf("Exact %v w=%v card=%d, reference %v w=%v card=%d",
				got.MateA, got.Weight, got.Card, want.MateA, want.Weight, want.Card)
		}
	})
}

// candidateGraph is shaped like an alignment problem's L: the identity
// matching plus random candidate links of expected degree dbar, with
// heuristic-like weights.
func candidateGraph(n int, dbar float64, seed int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]bipartite.WeightedEdge, 0, n*int(dbar+1))
	for v := 0; v < n; v++ {
		edges = append(edges, bipartite.WeightedEdge{A: v, B: v, W: 1 + rng.Float64()})
		for k := rng.Intn(int(2*dbar) + 1); k > 0; k-- {
			edges = append(edges, bipartite.WeightedEdge{A: v, B: rng.Intn(n), W: rng.Float64() * 2})
		}
	}
	g, err := bipartite.New(n, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestExactAllocsIndependentOfSize bounds one Exact call by a constant
// number of allocations at two graph sizes an order of magnitude
// apart: the search state is a fixed set of buffers, not one heap
// entry per relaxed edge.
func TestExactAllocsIndependentOfSize(t *testing.T) {
	const bound = 16
	for _, n := range []int{400, 4096} {
		g := candidateGraph(n, 8, int64(n))
		want := exactReference(g, 1)
		var got *Result
		allocs := testing.AllocsPerRun(2, func() { got = Exact(g, 1) })
		if allocs > bound {
			t.Errorf("n=%d: Exact made %.0f allocations, want ≤ %d", n, allocs, bound)
		}
		if !sameResult(got, want) {
			t.Errorf("n=%d: Exact differs from the reference", n)
		}
	}
}

// subsetSSPReference is SubsetMatcher's successive-shortest-path loop
// as it was before it shared Exact's solver: full resets per search
// and a hand-written heap. It returns mateL over the compact CSR
// (rowPtr, colB, wgt), whose rows may list columns unsorted and
// repeated.
func subsetSSPReference(na, nb int, rowPtr, colB []int, wgt []float64, maxW float64) []int {
	nr := nb + na
	potL := make([]float64, na)
	potR := make([]float64, nr)
	mateL := make([]int, na)
	mateR := make([]int, nr)
	dist := make([]float64, nr)
	prevL := make([]int, nr)
	done := make([]bool, nr)
	var h []pairItem
	push := func(it pairItem) {
		h = append(h, it)
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if h[parent].dist <= h[i].dist {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
	}
	pop := func() pairItem {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(h) && h[l].dist < h[smallest].dist {
				smallest = l
			}
			if r < len(h) && h[r].dist < h[smallest].dist {
				smallest = r
			}
			if smallest == i {
				return top
			}
			h[i], h[smallest] = h[smallest], h[i]
			i = smallest
		}
	}
	relax := func(i int, base float64) {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colB[k]
			if done[j] {
				continue
			}
			nd := base + (maxW - wgt[k]) - potL[i] - potR[j]
			if nd < dist[j] {
				dist[j] = nd
				prevL[j] = i
				push(pairItem{nd, j})
			}
		}
		dj := nb + i
		if !done[dj] {
			nd := base + maxW - potL[i] - potR[dj]
			if nd < dist[dj] {
				dist[dj] = nd
				prevL[dj] = i
				push(pairItem{nd, dj})
			}
		}
	}
	for i := 0; i < na; i++ {
		mateL[i] = -1
	}
	for j := 0; j < nr; j++ {
		mateR[j] = -1
	}
	for s := 0; s < na; s++ {
		for j := 0; j < nr; j++ {
			dist[j] = math.Inf(1)
			prevL[j] = -1
			done[j] = false
		}
		h = h[:0]
		relax(s, 0)
		end := -1
		for len(h) > 0 {
			it := pop()
			j := it.key
			if done[j] || it.dist > dist[j] {
				continue
			}
			done[j] = true
			if mateR[j] == -1 {
				end = j
				break
			}
			relax(mateR[j], dist[j])
		}
		if end == -1 {
			continue
		}
		delta := dist[end]
		potL[s] += delta
		for j := 0; j < nr; j++ {
			if !done[j] || j == end {
				continue
			}
			potR[j] += dist[j] - delta
			potL[mateR[j]] += delta - dist[j]
		}
		j := end
		for {
			i := prevL[j]
			mateR[j] = i
			j, mateL[i] = mateL[i], j
			if i == s {
				break
			}
		}
	}
	return mateL
}

// TestSSPMatchesSubsetReference feeds the shared solver the compact
// CSR shape SubsetMatcher builds (unsorted, repeated columns, tied
// positive weights) and checks it against the old subset loop, reusing
// one solver across calls as SubsetMatcher does.
func TestSSPMatchesSubsetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sp ssp
	for trial := 0; trial < 2000; trial++ {
		na, nb := 1+rng.Intn(12), 1+rng.Intn(12)
		rowPtr := make([]int, na+1)
		var colB []int
		var wgt []float64
		maxW := 0.0
		for a := 0; a < na; a++ {
			for k := rng.Intn(2 * nb); k > 0; k-- {
				w := float64(1 + rng.Intn(3))
				if rng.Intn(3) == 0 {
					w = rng.Float64() * 3
				}
				colB = append(colB, rng.Intn(nb))
				wgt = append(wgt, w)
				maxW = math.Max(maxW, w)
			}
			rowPtr[a+1] = len(colB)
		}
		want := subsetSSPReference(na, nb, rowPtr, colB, wgt, maxW)
		sp.solve(na, nb, rowPtr, colB, wgt, maxW)
		for a := range want {
			if sp.mateL[a] != want[a] {
				t.Fatalf("trial %d: mateL %v, reference %v", trial, sp.mateL[:na], want)
			}
		}
	}
}
