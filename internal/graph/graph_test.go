package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 2) // self loop, dropped
	b.AddEdge(3, 1)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 3) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) || g.HasEdge(0, 3) {
		t.Fatal("unexpected edges present")
	}
	if g.Degree(1) != 2 || g.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(2))
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := path(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) {
		t.Fatal("out-of-range HasEdge returned true")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := FromEdges(5, []Edge{{3, 1}, {0, 4}, {1, 3}, {2, 0}})
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("len(edges) = %d, want 3", len(edges))
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && (edges[i-1].U > e.U || (edges[i-1].U == e.U && edges[i-1].V >= e.V)) {
			t.Fatalf("edges not sorted at %d", i)
		}
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph has nonzero stats")
	}
	if len(g.Edges()) != 0 {
		t.Fatal("empty graph has edges")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path(4)
	// Corrupt: replace a neighbor to break symmetry.
	bad := &Graph{Ptr: append([]int(nil), g.Ptr...), Adj: append([]int(nil), g.Adj...)}
	bad.Adj[0] = 3 // 0 now claims neighbor 3 but 3 does not list 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric adjacency")
	}
}

// Property: Build always yields a structurally valid graph regardless
// of the random edge multiset thrown at it.
func TestQuickBuildValid(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint8) bool {
		n := int(nRaw)%40 + 2
		m := int(mRaw) % 120
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of degrees equals twice the number of edges.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(rng, n, 0.3)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
