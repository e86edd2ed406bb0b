package matching

// Parametric graph families with analytically known optimal matching
// weights: closed-form verification complementing the randomized
// property tests.

import (
	"math"
	"testing"

	"netalignmc/internal/bipartite"
)

// TestFamilyUniformCompleteBipartite: K_{n,n} with unit weights has
// optimum n.
func TestFamilyUniformCompleteBipartite(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		var edges []bipartite.WeightedEdge
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				edges = append(edges, bipartite.WeightedEdge{A: a, B: b, W: 1})
			}
		}
		g := mustGraph(t, n, n, edges)
		if r := Exact(g, 1); math.Abs(r.Weight-float64(n)) > 1e-9 {
			t.Fatalf("K_%d,%d exact = %g", n, n, r.Weight)
		}
		if r := Approx(g, 2); r.Card != n {
			t.Fatalf("K_%d,%d approx matched %d", n, n, r.Card)
		}
	}
}

// TestFamilyIncreasingPath: the alternating path a0-b0-a1-b1-... with
// weights 1,2,3,... has a closed-form optimum: with 2k edges, pick the
// even-position weights 2,4,...,2k; with 2k+1 edges, pick 1,3,...,2k+1
// — whichever alternation is heavier (the even alternation for even
// counts; for odd counts the odd alternation {1,3,..,2k+1} sums to
// (k+1)² versus the even {2,4,..,2k} = k(k+1), so odd wins).
func TestFamilyIncreasingPath(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 7, 10, 15} {
		// Path with m edges alternates sides: edge i joins
		// a_{ceil(i/2)} and b_{floor(i/2)}.
		var edges []bipartite.WeightedEdge
		for i := 0; i < m; i++ {
			edges = append(edges, bipartite.WeightedEdge{A: (i + 1) / 2, B: i / 2, W: float64(i + 1)})
		}
		na := (m+1)/2 + 1
		nb := m/2 + 1
		g := mustGraph(t, na, nb, edges)
		// Closed form: max over the two alternations.
		even, odd := 0.0, 0.0
		for i := 1; i <= m; i++ {
			if i%2 == 0 {
				even += float64(i)
			} else {
				odd += float64(i)
			}
		}
		want := math.Max(even, odd)
		if r := Exact(g, 1); math.Abs(r.Weight-want) > 1e-9 {
			t.Fatalf("path m=%d: exact %g, want %g", m, r.Weight, want)
		}
		// Half-approx guarantee on the same family.
		if r := Approx(g, 1); r.Weight < want/2-1e-9 {
			t.Fatalf("path m=%d: approx %g below half of %g", m, r.Weight, want)
		}
	}
}

// TestFamilyStarGadget: k stars sharing no vertices; optimum = sum of
// each star's heaviest ray.
func TestFamilyStarGadget(t *testing.T) {
	const k, rays = 5, 4
	var edges []bipartite.WeightedEdge
	want := 0.0
	for s := 0; s < k; s++ {
		bestRay := 0.0
		for r := 0; r < rays; r++ {
			w := float64(s*rays + r + 1)
			edges = append(edges, bipartite.WeightedEdge{A: s, B: s*rays + r, W: w})
			if w > bestRay {
				bestRay = w
			}
		}
		want += bestRay
	}
	g := mustGraph(t, k, k*rays, edges)
	for name, m := range map[string]Matcher{
		"exact": Exact, "greedy": Greedy, "ld": Approx, "suitor": Suitor,
	} {
		r := m(g, 2)
		// Stars are vertex-disjoint, so every matcher is optimal here.
		if math.Abs(r.Weight-want) > 1e-9 {
			t.Fatalf("%s: stars = %g, want %g", name, r.Weight, want)
		}
	}
}
