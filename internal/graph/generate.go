package graph

import (
	"math"
	"math/rand"
	"sort"
)

// PowerLawDegrees samples n degrees from a discrete power-law
// distribution P(d) ∝ d^(-gamma) truncated to [minDeg, maxDeg], using
// inverse-transform sampling. The paper's synthetic problems start
// from "a 400 node random power-law graph" built by first sampling a
// power-law degree distribution; this reproduces that first step.
func PowerLawDegrees(rng *rand.Rand, n int, gamma float64, minDeg, maxDeg int) []int {
	if minDeg < 1 {
		minDeg = 1
	}
	if maxDeg < minDeg {
		maxDeg = minDeg
	}
	if maxDeg >= n {
		maxDeg = n - 1
	}
	// Cumulative mass over [minDeg, maxDeg].
	weights := make([]float64, maxDeg-minDeg+1)
	total := 0.0
	for d := minDeg; d <= maxDeg; d++ {
		w := math.Pow(float64(d), -gamma)
		weights[d-minDeg] = w
		total += w
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	degs := make([]int, n)
	for i := range degs {
		u := rng.Float64()
		j := sort.SearchFloat64s(cum, u)
		if j >= len(cum) {
			j = len(cum) - 1
		}
		degs[i] = minDeg + j
	}
	return degs
}

// ChungLu generates a random simple graph whose expected degree
// sequence matches degs, by sampling each edge {u,v} independently
// with probability min(1, d_u d_v / sum(d)). This is the standard
// "random graph with prescribed degree distribution" construction the
// paper relies on ("we... generated a random graph with that
// prescribed degree distribution"). For the small degree sums used
// here it enumerates vertex pairs grouped by degree bucket with a
// skipping trick so generation is O(E log n) in expectation rather
// than O(n^2).
func ChungLu(rng *rand.Rand, degs []int) *Graph {
	n := len(degs)
	b := NewBuilder(n)
	sum := 0.0
	for _, d := range degs {
		sum += float64(d)
	}
	if sum == 0 {
		return b.Build()
	}
	// Order vertices by decreasing degree so the geometric skipping is
	// effective (probabilities decrease along the row).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return degs[order[a]] > degs[order[b]] })
	sorted := make([]float64, n)
	for i, v := range order {
		sorted[i] = float64(degs[v])
	}
	// Miller–Hagberg style generation: for each row i, walk j with
	// geometric gaps drawn at the current probability bound q (valid
	// for all later j because degrees are sorted descending), then
	// accept the landed pair with probability q_j/q.
	for i := 0; i < n; i++ {
		if sorted[i] == 0 {
			break
		}
		j := i + 1
		for j < n {
			q := sorted[i] * sorted[j] / sum
			if q > 1 {
				q = 1
			}
			if q <= 0 {
				break
			}
			if q < 1 {
				r := rng.Float64()
				if r == 0 {
					r = math.SmallestNonzeroFloat64
				}
				j += int(math.Floor(math.Log(r) / math.Log(1-q)))
				if j >= n {
					break
				}
				qj := sorted[i] * sorted[j] / sum
				if qj > 1 {
					qj = 1
				}
				if rng.Float64() < qj/q {
					b.AddEdge(order[i], order[j])
				}
			} else {
				b.AddEdge(order[i], order[j])
			}
			j++
		}
	}
	return b.Build()
}

// PowerLaw generates an n-vertex power-law random graph: degrees are
// sampled from P(d) ∝ d^(-gamma) on [minDeg, maxDeg] and edges are
// realized with the Chung–Lu model. It retries degree sampling until
// the realized graph is non-empty.
func PowerLaw(rng *rand.Rand, n int, gamma float64, minDeg, maxDeg int) *Graph {
	for attempt := 0; ; attempt++ {
		degs := PowerLawDegrees(rng, n, gamma, minDeg, maxDeg)
		g := ChungLu(rng, degs)
		if g.NumEdges() > 0 || attempt > 10 {
			return g
		}
	}
}

// ErdosRenyi generates G(n, p): every vertex pair is an edge
// independently with probability p, using geometric skipping so the
// cost is O(E) in expectation.
func ErdosRenyi(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	if p <= 0 || n < 2 {
		return b.Build()
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	logq := math.Log(1 - p)
	// Walk the strictly-upper-triangular pair index with geometric gaps.
	total := int64(n) * int64(n-1) / 2
	idx := int64(-1)
	for {
		r := rng.Float64()
		if r == 0 {
			r = math.SmallestNonzeroFloat64
		}
		idx += 1 + int64(math.Floor(math.Log(r)/logq))
		if idx >= total || idx < 0 {
			break
		}
		u, v := pairFromIndex(idx, n)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// pairFromIndex maps a linear index over the strictly upper triangle
// of an n×n matrix (row-major) to the pair (u, v), u < v.
func pairFromIndex(idx int64, n int) (int, int) {
	// Row u holds n-1-u entries; find u by solving the triangular sum.
	u := 0
	remaining := idx
	for {
		row := int64(n - 1 - u)
		if remaining < row {
			return u, u + 1 + int(remaining)
		}
		remaining -= row
		u++
	}
}

// Perturb returns a copy of g with extra edges added: each non-edge
// pair becomes an edge independently with probability p. This is the
// paper's perturbation step ("randomly add edges with probability 0.02
// to form the graphs A and B").
func Perturb(rng *rand.Rand, g *Graph, p float64) *Graph {
	n := g.NumVertices()
	b := NewBuilder(n)
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	noise := ErdosRenyi(rng, n, p)
	for _, e := range noise.Edges() {
		if !g.HasEdge(e.U, e.V) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// RandomPermutation returns a uniformly random permutation of 0..n-1.
func RandomPermutation(rng *rand.Rand, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
