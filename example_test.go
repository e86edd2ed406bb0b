package netalignmc_test

import (
	"fmt"

	netalignmc "netalignmc"
)

// Example aligns two tiny graphs end to end: the canonical quickstart.
func Example() {
	// A and B are both a single edge; L offers all four pairings.
	a := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	b := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	l, _ := netalignmc.NewCandidateGraph(2, 2, []netalignmc.CandidateEdge{
		{A: 0, B: 0, W: 2}, {A: 0, B: 1, W: 1}, {A: 1, B: 0, W: 1}, {A: 1, B: 1, W: 2},
	})
	p, _ := netalignmc.NewProblem(a, b, l, 1, 2)
	res := p.BPAlign(netalignmc.BPOptions{Iterations: 20})
	fmt.Printf("objective=%.0f overlap=%.0f\n", res.Objective, res.Overlap)
	fmt.Printf("A0->B%d A1->B%d\n", res.Matching.MateA[0], res.Matching.MateA[1])
	// Output:
	// objective=6 overlap=1
	// A0->B0 A1->B1
}

// ExampleProblem_KlauAlign shows Klau's matching relaxation with its
// optimality detection: on this instance the Lagrangian bound closes
// immediately, proving the solution optimal.
func ExampleProblem_KlauAlign() {
	a := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	b := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	l, _ := netalignmc.NewCandidateGraph(2, 2, []netalignmc.CandidateEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 1, B: 0, W: 1}, {A: 1, B: 1, W: 1},
	})
	p, _ := netalignmc.NewProblem(a, b, l, 1, 2)
	res := p.KlauAlign(netalignmc.MROptions{Iterations: 50, GapTolerance: 1e-9})
	fmt.Printf("objective=%.0f converged=%v at iteration %d\n",
		res.Objective, res.Converged, res.ConvergedIter)
	// Output:
	// objective=4 converged=true at iteration 1
}

// ExampleApproxMatcher demonstrates the parallel half-approximate
// matcher directly on a candidate graph.
func ExampleApproxMatcher() {
	l, _ := netalignmc.NewCandidateGraph(2, 2, []netalignmc.CandidateEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 2}, {A: 1, B: 0, W: 3},
	})
	m := netalignmc.ApproxMatcher(l, 0)
	fmt.Printf("weight=%.0f matched=%d\n", m.Weight, m.Card)
	// Output:
	// weight=5 matched=2
}

// ExampleProblem_BaselineAlign contrasts the round-the-input-weights
// baseline with IsoRank-style propagation.
func ExampleProblem_BaselineAlign() {
	a := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	b := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	l, _ := netalignmc.NewCandidateGraph(2, 2, []netalignmc.CandidateEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 1, B: 0, W: 1}, {A: 1, B: 1, W: 1},
	})
	p, _ := netalignmc.NewProblem(a, b, l, 1, 2)
	res := p.BaselineAlign(netalignmc.BaselineOptions{Kind: netalignmc.BaselineIsoRank})
	fmt.Printf("objective=%.0f\n", res.Objective)
	// Output:
	// objective=4
}
