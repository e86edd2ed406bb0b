package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestPowerLawDegreesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	degs := PowerLawDegrees(rng, 1000, 2.3, 1, 50)
	if len(degs) != 1000 {
		t.Fatalf("len = %d", len(degs))
	}
	for i, d := range degs {
		if d < 1 || d > 50 {
			t.Fatalf("degree[%d] = %d out of [1,50]", i, d)
		}
	}
}

func TestPowerLawDegreesSkewed(t *testing.T) {
	// A power law with gamma > 1 should put most mass at the minimum
	// degree and still produce occasional large degrees.
	rng := rand.New(rand.NewSource(11))
	degs := PowerLawDegrees(rng, 5000, 2.0, 1, 100)
	ones, big := 0, 0
	for _, d := range degs {
		if d == 1 {
			ones++
		}
		if d >= 10 {
			big++
		}
	}
	if ones < len(degs)/3 {
		t.Fatalf("only %d/%d degree-1 vertices; distribution not skewed", ones, len(degs))
	}
	if big == 0 {
		t.Fatal("no high-degree vertices; tail missing")
	}
}

func TestPowerLawDegreesClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// maxDeg >= n must be clamped to n-1, minDeg < 1 raised to 1.
	degs := PowerLawDegrees(rng, 10, 2.0, 0, 100)
	for _, d := range degs {
		if d < 1 || d > 9 {
			t.Fatalf("degree %d outside clamped range [1,9]", d)
		}
	}
}

func TestChungLuExpectedDegrees(t *testing.T) {
	// With a regular expected-degree sequence the realized mean degree
	// should be close to the target.
	rng := rand.New(rand.NewSource(5))
	n, target := 2000, 8
	degs := make([]int, n)
	for i := range degs {
		degs[i] = target
	}
	g := ChungLu(rng, degs)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mean := 2 * float64(g.NumEdges()) / float64(n)
	if math.Abs(mean-float64(target)) > 1.0 {
		t.Fatalf("mean degree %.2f, want ≈ %d", mean, target)
	}
}

func TestChungLuZeroDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ChungLu(rng, []int{0, 0, 0})
	if g.NumEdges() != 0 || g.NumVertices() != 3 {
		t.Fatal("zero-degree sequence should give empty graph")
	}
}

func TestPowerLawGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := PowerLaw(rng, 400, 2.1, 1, 30)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("power-law graph is empty")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, p := 300, 0.05
	g := ErdosRenyi(rng, n, p)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	expected := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if got < expected*0.8 || got > expected*1.2 {
		t.Fatalf("edges = %.0f, expected ≈ %.0f", got, expected)
	}
}

func TestErdosRenyiEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if g := ErdosRenyi(rng, 5, 0); g.NumEdges() != 0 {
		t.Fatal("p=0 produced edges")
	}
	if g := ErdosRenyi(rng, 1, 0.5); g.NumEdges() != 0 {
		t.Fatal("single vertex produced edges")
	}
	g := ErdosRenyi(rng, 6, 1)
	if g.NumEdges() != 15 {
		t.Fatalf("p=1 on K6: %d edges, want 15", g.NumEdges())
	}
}

func TestPairFromIndex(t *testing.T) {
	n := 6
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if gu != u || gv != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestPerturbOnlyAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := PowerLaw(rng, 200, 2.2, 1, 20)
	h := Perturb(rng, g, 0.02)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			t.Fatalf("perturbation dropped edge %+v", e)
		}
	}
	if h.NumEdges() < g.NumEdges() {
		t.Fatal("perturbation lost edges")
	}
	// With p=0.02 on ~200 vertices we expect ≈ 0.02 * 199*100 ≈ 400
	// extra edges; at least some must appear.
	if h.NumEdges() == g.NumEdges() {
		t.Fatal("perturbation added nothing (statistically implausible)")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	g1 := PowerLaw(rand.New(rand.NewSource(77)), 300, 2.0, 1, 25)
	g2 := PowerLaw(rand.New(rand.NewSource(77)), 300, 2.0, 1, 25)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestRandomPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	perm := RandomPermutation(rng, 100)
	seen := make([]bool, 100)
	for _, p := range perm {
		if p < 0 || p >= 100 || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
}
