package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t testing.TB, na, nb int, edges []WeightedEdge) *Graph {
	t.Helper()
	g, err := New(na, nb, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func randomBipartite(rng *rand.Rand, na, nb int, density float64) []WeightedEdge {
	var edges []WeightedEdge
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			if rng.Float64() < density {
				edges = append(edges, WeightedEdge{a, b, rng.Float64()})
			}
		}
	}
	return edges
}

func TestNewBasics(t *testing.T) {
	g := mustNew(t, 3, 2, []WeightedEdge{
		{0, 0, 1.0}, {0, 1, 2.0}, {2, 0, 3.0}, {0, 0, 0.5}, // dup keeps max
	})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if e, ok := g.Find(0, 0); !ok || g.W[e] != 1.0 {
		t.Fatalf("dup merge kept wrong weight")
	}
	if g.DegreeA(0) != 2 || g.DegreeA(1) != 0 || g.DegreeA(2) != 1 {
		t.Fatal("DegreeA wrong")
	}
	if g.DegreeB(0) != 2 || g.DegreeB(1) != 1 {
		t.Fatal("DegreeB wrong")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(-1, 0) || g.HasEdge(0, 9) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(-1, 2, nil); err == nil {
		t.Fatal("negative side accepted")
	}
	if _, err := New(2, 2, []WeightedEdge{{2, 0, 1}}); err == nil {
		t.Fatal("out-of-range A accepted")
	}
	if _, err := New(2, 2, []WeightedEdge{{0, 2, 1}}); err == nil {
		t.Fatal("out-of-range B accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustNew(t, 0, 0, nil)
	if g.NumEdges() != 0 {
		t.Fatal("empty graph nonzero")
	}
	g2 := mustNew(t, 4, 4, nil)
	if g2.DegreeA(2) != 0 || g2.DegreeB(3) != 0 {
		t.Fatal("edgeless graph has degrees")
	}
}

func TestRowRangeContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := mustNew(t, 10, 8, randomBipartite(rng, 10, 8, 0.4))
	for a := 0; a < g.NA; a++ {
		lo, hi := g.RowRange(a)
		for e := lo; e < hi; e++ {
			if g.EdgeA[e] != a {
				t.Fatalf("row range of %d holds edge of %d", a, g.EdgeA[e])
			}
			if e > lo && g.EdgeB[e-1] >= g.EdgeB[e] {
				t.Fatalf("row %d not sorted by B", a)
			}
		}
	}
}

func TestColViewCoversAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := mustNew(t, 12, 9, randomBipartite(rng, 12, 9, 0.3))
	seen := make([]bool, g.NumEdges())
	for b := 0; b < g.NB; b++ {
		for _, e := range g.ColEdgesOf(b) {
			if seen[e] {
				t.Fatalf("edge %d appears twice in column view", e)
			}
			seen[e] = true
			if g.EdgeB[e] != b {
				t.Fatalf("column %d lists edge with B endpoint %d", b, g.EdgeB[e])
			}
		}
	}
	for e, s := range seen {
		if !s {
			t.Fatalf("edge %d missing from column view", e)
		}
	}
}

func TestWithWeights(t *testing.T) {
	g := mustNew(t, 2, 2, []WeightedEdge{{0, 0, 1}, {1, 1, 2}})
	h, err := g.WithWeights([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if h.W[0] != 10 || g.W[0] != 1 {
		t.Fatal("WithWeights aliased or lost weights")
	}
	if h.NumEdges() != g.NumEdges() || h.RowPtr[1] != g.RowPtr[1] {
		t.Fatal("WithWeights changed structure")
	}
	if _, err := g.WithWeights([]float64{1}); err == nil {
		t.Fatal("short weight vector accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fresh := func() *Graph {
		return mustNew(t, 5, 5, randomBipartite(rng, 5, 5, 0.6))
	}

	g := fresh()
	g.EdgeA = g.EdgeA[:len(g.EdgeA)-1]
	if g.Validate() == nil {
		t.Error("short EdgeA accepted")
	}

	g = fresh()
	g.RowPtr[g.NA] = 0
	if g.Validate() == nil {
		t.Error("bad row pointer endpoint accepted")
	}

	g = fresh()
	g.EdgeA[0] = -1
	if g.Validate() == nil {
		t.Error("out-of-range endpoint accepted")
	}

	g = fresh()
	if g.NumEdges() >= 2 {
		g.EdgeA[0], g.EdgeA[1] = g.EdgeA[1], g.EdgeA[0]
		g.EdgeB[0], g.EdgeB[1] = g.EdgeB[1], g.EdgeB[0]
		if g.Validate() == nil {
			t.Error("unsorted edges accepted")
		}
	}

	g = fresh()
	if g.NumEdges() >= 2 {
		g.ColEdges[0] = g.ColEdges[1]
		if g.Validate() == nil {
			t.Error("duplicated column-view entry accepted")
		}
	}

	g = fresh()
	// Shift a row pointer so a row claims a neighbor's edge.
	if g.NA >= 2 && g.RowPtr[1] < g.NumEdges() {
		g.RowPtr[1]++
		if g.Validate() == nil {
			t.Error("misaligned row pointer accepted")
		}
	}
}

// Property: Find agrees with a linear scan for random graphs.
func TestQuickFind(t *testing.T) {
	f := func(seed int64, naRaw, nbRaw uint8) bool {
		na := int(naRaw)%12 + 1
		nb := int(nbRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		g, err := New(na, nb, randomBipartite(rng, na, nb, 0.35))
		if err != nil || g.Validate() != nil {
			return false
		}
		for a := 0; a < na; a++ {
			for b := 0; b < nb; b++ {
				want := -1
				for e := 0; e < g.NumEdges(); e++ {
					if g.EdgeA[e] == a && g.EdgeB[e] == b {
						want = e
						break
					}
				}
				got, ok := g.Find(a, b)
				if (want >= 0) != ok {
					return false
				}
				if ok && got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sums on both sides equal the edge count.
func TestQuickDegreeSums(t *testing.T) {
	f := func(seed int64, naRaw, nbRaw uint8) bool {
		na := int(naRaw)%20 + 1
		nb := int(nbRaw)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		g, err := New(na, nb, randomBipartite(rng, na, nb, 0.25))
		if err != nil {
			return false
		}
		sa, sb := 0, 0
		for a := 0; a < na; a++ {
			sa += g.DegreeA(a)
		}
		for b := 0; b < nb; b++ {
			sb += g.DegreeB(b)
		}
		return sa == g.NumEdges() && sb == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
