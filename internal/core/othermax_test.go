package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netalignmc/internal/bipartite"
)

// bruteOthermaxRow computes othermaxrow by definition for validation.
func bruteOthermaxRow(g []float64, l *bipartite.Graph) []float64 {
	out := make([]float64, l.NumEdges())
	for a := 0; a < l.NA; a++ {
		lo, hi := l.RowRange(a)
		for e := lo; e < hi; e++ {
			best := math.Inf(-1)
			for e2 := lo; e2 < hi; e2++ {
				if e2 == e {
					continue
				}
				if g[e2] > best {
					best = g[e2]
				}
			}
			if best < 0 {
				best = 0
			}
			out[e] = best
		}
	}
	return out
}

func bruteOthermaxCol(g []float64, l *bipartite.Graph) []float64 {
	out := make([]float64, l.NumEdges())
	for b := 0; b < l.NB; b++ {
		edges := l.ColEdgesOf(b)
		for _, e := range edges {
			best := math.Inf(-1)
			for _, e2 := range edges {
				if e2 == e {
					continue
				}
				if g[e2] > best {
					best = g[e2]
				}
			}
			if best < 0 {
				best = 0
			}
			out[e] = best
		}
	}
	return out
}

func randomL(rng *rand.Rand, na, nb int, density float64) *bipartite.Graph {
	var edges []bipartite.WeightedEdge
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			if rng.Float64() < density {
				edges = append(edges, bipartite.WeightedEdge{A: a, B: b, W: rng.Float64()})
			}
		}
	}
	l, err := bipartite.New(na, nb, edges)
	if err != nil {
		panic(err)
	}
	return l
}

func TestOthermaxRowSmall(t *testing.T) {
	// Row of vertex 0 has weights 3, 1, 2: argmax gets second (2),
	// others get max (3).
	l, err := bipartite.New(1, 3, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 0, B: 2, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := []float64{3, 1, 2}
	dst := make([]float64, 3)
	othermaxRowsRange(dst, g, l, 0, l.NA)
	want := []float64{2, 3, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("othermaxrow = %v, want %v", dst, want)
		}
	}
}

func TestOthermaxSingleEdgeRowClampsToZero(t *testing.T) {
	l, err := bipartite.New(1, 1, []bipartite.WeightedEdge{{A: 0, B: 0, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dst := []float64{99}
	othermaxRowsRange(dst, []float64{-5}, l, 0, l.NA)
	if dst[0] != 0 {
		t.Fatalf("single-edge row gave %g, want 0 (bound of empty max)", dst[0])
	}
}

func TestOthermaxNegativeClamp(t *testing.T) {
	l, err := bipartite.New(1, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	othermaxRowsRange(dst, []float64{-3, -7}, l, 0, l.NA)
	// Other max of edge 0 is -7 -> clamp 0; of edge 1 is -3 -> clamp 0.
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("negative othermax not clamped: %v", dst)
	}
}

func TestOthermaxTies(t *testing.T) {
	l, err := bipartite.New(1, 3, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 0, B: 2, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	othermaxRowsRange(dst, []float64{5, 5, 1}, l, 0, l.NA)
	// Every edge's "other max" is 5 (the tie survives exclusion).
	if dst[0] != 5 || dst[1] != 5 || dst[2] != 5 {
		t.Fatalf("tied othermax wrong: %v", dst)
	}
}

func TestQuickOthermaxMatchesBrute(t *testing.T) {
	f := func(seed int64, naRaw, nbRaw, thrRaw uint8) bool {
		na := int(naRaw)%10 + 1
		nb := int(nbRaw)%10 + 1
		// Vertices are independent: any split into ranges (here,
		// pieces of `piece` vertices) gives the same result.
		piece := int(thrRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		l := randomL(rng, na, nb, 0.5)
		g := make([]float64, l.NumEdges())
		for i := range g {
			g[i] = rng.NormFloat64() * 3
		}
		gotR := make([]float64, len(g))
		gotC := make([]float64, len(g))
		for lo := 0; lo < l.NA; lo += piece {
			othermaxRowsRange(gotR, g, l, lo, min(lo+piece, l.NA))
		}
		for lo := 0; lo < l.NB; lo += piece {
			othermaxColsRange(gotC, g, l, lo, min(lo+piece, l.NB))
		}
		wantR := bruteOthermaxRow(g, l)
		wantC := bruteOthermaxCol(g, l)
		for i := range g {
			if math.Abs(gotR[i]-wantR[i]) > 1e-12 || math.Abs(gotC[i]-wantC[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBPSanityCheckHelper(t *testing.T) {
	if !finiteVector([]float64{1, -2, 0}) {
		t.Fatal("finite values flagged")
	}
	if finiteVector([]float64{math.NaN()}) || finiteVector([]float64{math.Inf(1)}) {
		t.Fatal("non-finite values accepted")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !almostEqual(1, 1+1e-12) || almostEqual(1, 1.1) {
		t.Fatal("almostEqual wrong")
	}
}
