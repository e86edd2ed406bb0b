package matching

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"netalignmc/internal/bipartite"
)

// int32s converts an edge list to the int32 form the row plan takes.
func int32s(edges []int) []int32 {
	out := make([]int32, len(edges))
	for i, e := range edges {
		out[i] = int32(e)
	}
	return out
}

// solveSubset solves one subset problem through a one-row plan.
func solveSubset(sm *SubsetMatcher, g *bipartite.Graph, edges []int, weights []float64, selected []int) ([]int, float64) {
	var pl RowPlan
	pl.Build(g, []int{0, len(edges)}, int32s(edges))
	return sm.SolveRow(&pl, 0, weights, selected)
}

func TestSubsetMatcherMatchesExactSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		na := rng.Intn(8) + 1
		nb := rng.Intn(8) + 1
		g := randomGraph(rng, na, nb, 0.6)
		sm := NewSubsetMatcher(na, nb)
		// Several SolveRow calls on the same matcher: scratch reuse must
		// not leak state between calls.
		for call := 0; call < 4; call++ {
			var edges []int
			var weights []float64
			for e := 0; e < g.NumEdges(); e++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, e)
					weights = append(weights, rng.Float64()*4-0.8)
				}
			}
			wantSel, wantVal := ExactSubset(g, edges, weights)
			gotSel, gotVal := solveSubset(sm, g, edges, weights, nil)
			if math.Abs(wantVal-gotVal) > 1e-9 {
				t.Fatalf("trial %d call %d: value %g != %g", trial, call, gotVal, wantVal)
			}
			// Selections may differ on ties; verify the got selection
			// is a matching with the claimed value.
			usedA := map[int]bool{}
			usedB := map[int]bool{}
			sum := 0.0
			for _, i := range gotSel {
				e := edges[i]
				a, b := g.EdgeA[e], g.EdgeB[e]
				if usedA[a] || usedB[b] {
					t.Fatalf("trial %d: selection not a matching", trial)
				}
				usedA[a], usedB[b] = true, true
				sum += weights[i]
			}
			if math.Abs(sum-gotVal) > 1e-9 {
				t.Fatalf("trial %d: reported %g actual %g", trial, gotVal, sum)
			}
			sort.Ints(wantSel)
			sort.Ints(gotSel)
			_ = wantSel
		}
	}
}

func TestSubsetMatcherAppendsToSelected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 4, 4, 0.8)
	sm := NewSubsetMatcher(4, 4)
	edges := []int{0}
	weights := []float64{g.W[0]}
	base := []int{42}
	sel, _ := solveSubset(sm, g, edges, weights, base)
	if len(sel) < 1 || sel[0] != 42 {
		t.Fatalf("SolveRow must append to the given slice: %v", sel)
	}
}

func TestSubsetMatcherEmptyAndNonPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 3, 3, 0.9)
	sm := NewSubsetMatcher(3, 3)
	if sel, val := solveSubset(sm, g, nil, nil, nil); sel != nil || val != 0 {
		t.Fatal("empty input nonzero")
	}
	if sel, val := solveSubset(sm, g, []int{0, 1}, []float64{-1, 0}, nil); len(sel) != 0 || val != 0 {
		t.Fatal("non-positive weights selected")
	}
}

func TestSubsetMatcherNoAllocAfterWarmup(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 20, 20, 0.4)
	sm := NewSubsetMatcher(20, 20)
	var edges []int
	var weights []float64
	for e := 0; e < g.NumEdges() && e < 25; e++ {
		edges = append(edges, e)
		weights = append(weights, g.W[e])
	}
	var pl RowPlan
	pl.Build(g, []int{0, len(edges)}, int32s(edges))
	sel := make([]int, 0, len(edges))
	sm.SolveRow(&pl, 0, weights, sel[:0]) // warm-up
	allocs := testing.AllocsPerRun(50, func() {
		sm.SolveRow(&pl, 0, weights, sel[:0])
	})
	if allocs > 1 {
		t.Fatalf("SolveRow allocates %.1f objects per call after warm-up", allocs)
	}
}

func TestGreedySubsetHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sm := NewSubsetMatcher(10, 10)
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, rng.Intn(8)+1, rng.Intn(8)+1, 0.6)
		if g.NA > 10 || g.NB > 10 {
			continue
		}
		var edges []int
		var weights []float64
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Float64() < 0.8 {
				edges = append(edges, e)
				weights = append(weights, rng.Float64()*5-0.5)
			}
		}
		gSel, gVal := sm.GreedySubset(g, int32s(edges), weights, nil)
		_, exVal := solveSubset(sm, g, edges, weights, nil)
		// Validity: selection is a matching with the claimed value.
		usedA := map[int]bool{}
		usedB := map[int]bool{}
		sum := 0.0
		for _, i := range gSel {
			e := edges[i]
			a, b := g.EdgeA[e], g.EdgeB[e]
			if usedA[a] || usedB[b] {
				t.Fatal("greedy subset not a matching")
			}
			usedA[a], usedB[b] = true, true
			if weights[i] <= 0 {
				t.Fatal("greedy subset selected non-positive weight")
			}
			sum += weights[i]
		}
		if math.Abs(sum-gVal) > 1e-9 {
			t.Fatalf("greedy value %g actual %g", gVal, sum)
		}
		// Half-approximation against the exact subset value.
		if gVal < exVal/2-1e-9 || gVal > exVal+1e-9 {
			t.Fatalf("trial %d: greedy %g vs exact %g", trial, gVal, exVal)
		}
	}
}

func BenchmarkSubsetMatcher(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 200, 200, 0.05)
	sm := NewSubsetMatcher(200, 200)
	var edges []int
	var weights []float64
	for e := 0; e < g.NumEdges(); e += 3 {
		edges = append(edges, e)
		weights = append(weights, g.W[e])
	}
	var pl RowPlan
	pl.Build(g, []int{0, len(edges)}, int32s(edges))
	sel := make([]int, 0, len(edges))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, _ = sm.SolveRow(&pl, 0, weights, sel[:0])
	}
}

func BenchmarkExactSubsetBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 200, 200, 0.05)
	var edges []int
	var weights []float64
	for e := 0; e < g.NumEdges(); e += 3 {
		edges = append(edges, e)
		weights = append(weights, g.W[e])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactSubset(g, edges, weights)
	}
}
