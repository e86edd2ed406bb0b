package core_test

// Edge-case tests for behaviors not covered by the main suites:
// degenerate shapes, mismatched sides, panics on misuse.

import (
	"testing"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/graph"
	"netalignmc/internal/matching"
)

// emptyOverlapProblem: A has no edges, so S is empty and alignment
// reduces to pure weighted matching.
func emptyOverlapProblem(t testing.TB) *core.Problem {
	t.Helper()
	a := graph.FromEdges(3, nil)
	b := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	l, err := bipartite.New(3, 3, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 2}, {A: 1, B: 1, W: 3}, {A: 2, B: 2, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(a, b, l, 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEmptyOverlapProblem(t *testing.T) {
	p := emptyOverlapProblem(t)
	if p.NNZS() != 0 {
		t.Fatalf("nnz(S) = %d", p.NNZS())
	}
	// Both methods degenerate gracefully to weighted matching.
	bp := p.BPAlign(core.BPOptions{Iterations: 5})
	if bp.Objective != 6 || bp.Overlap != 0 {
		t.Fatalf("BP on overlap-free problem: obj=%g overlap=%g", bp.Objective, bp.Overlap)
	}
	mr := p.KlauAlign(core.MROptions{Iterations: 5, GapTolerance: 1e-9})
	if mr.Objective != 6 {
		t.Fatalf("MR on overlap-free problem: %g", mr.Objective)
	}
	// The bound gap closes immediately: no overlap term to relax.
	if !mr.Converged {
		t.Fatal("MR should certify optimality with an empty S")
	}
	if err := p.Verify(0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectangularSidesIdentityIndicator(t *testing.T) {
	// NA != NB: IdentityIndicator must only cover the shorter side.
	a := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}})
	b := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	var edges []bipartite.WeightedEdge
	for va := 0; va < 4; va++ {
		for vb := 0; vb < 2; vb++ {
			edges = append(edges, bipartite.WeightedEdge{A: va, B: vb, W: 1})
		}
	}
	l, err := bipartite.New(4, 2, edges)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(a, b, l, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := p.IdentityIndicator()
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum != 2 {
		t.Fatalf("identity selected %g pairs, want 2", sum)
	}
}

func TestRoundHeuristicErrorsOnBadLength(t *testing.T) {
	p := emptyOverlapProblem(t)
	// A short heuristic vector is an API-reachable mistake and must
	// come back as a structured error, not a panic.
	if _, _, err := p.RoundHeuristic([]float64{1}, matching.Exact, 1, 1, &core.Tracker{}); err == nil {
		t.Fatal("short heuristic vector accepted")
	}
}

func TestBPZeroIterationsDefaults(t *testing.T) {
	p := emptyOverlapProblem(t)
	// Iterations <= 0 selects the default (100), not zero work.
	r := p.BPAlign(core.BPOptions{Iterations: -1})
	if r.Iterations != 100 {
		t.Fatalf("default iterations = %d", r.Iterations)
	}
}

func TestWarmStartWrongLengthIgnored(t *testing.T) {
	p := emptyOverlapProblem(t)
	// Documented behavior: mismatched warm vectors are ignored.
	r := p.BPAlign(core.BPOptions{Iterations: 3, WarmY: []float64{1, 2}, WarmZ: nil})
	if err := r.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
}

func TestObserverSeesEveryIteration(t *testing.T) {
	p := emptyOverlapProblem(t)
	calls := 0
	p.BPAlign(core.BPOptions{Iterations: 7, Observer: func(iter int, y, z []float64) {
		calls++
		if iter != calls {
			t.Fatalf("observer iter %d at call %d", iter, calls)
		}
		if len(y) != p.L.NumEdges() || len(z) != p.L.NumEdges() {
			t.Fatal("observer vectors wrong length")
		}
	}})
	if calls != 7 {
		t.Fatalf("observer called %d times", calls)
	}
}

func TestVerifySampledDetectsDenseCorruption(t *testing.T) {
	// Random sampling must catch a corruption that affects many
	// entries: here every column moves within its row while the
	// pattern stays symmetric and SPerm stays its transpose, so only
	// the overlap definition can tell. S pairs e0-e1 and e2-e3 instead
	// of e0-e3 and e1-e2.
	p := func() *core.Problem {
		a := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
		b := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
		l, _ := bipartite.New(2, 2, []bipartite.WeightedEdge{
			{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 1, B: 0, W: 1}, {A: 1, B: 1, W: 1},
		})
		pp, err := core.NewProblem(a, b, l, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}()
	copy(p.S.Col, []int32{1, 0, 3, 2})
	copy(p.SPerm, []int32{1, 0, 3, 2})
	if err := p.Verify(100, nil); err == nil {
		t.Fatal("dense corruption not detected by sampling")
	}
}
