// Quickstart: build a tiny network alignment problem by hand, run
// belief propagation with approximate rounding, and inspect the
// resulting alignment through the public API.
package main

import (
	"fmt"
	"log"

	netalignmc "netalignmc"
)

func main() {
	// Graph A: a 4-cycle. Graph B: the same 4-cycle with one chord.
	a := netalignmc.GraphFromEdges(4, []netalignmc.GraphEdge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
	})
	b := netalignmc.GraphFromEdges(4, []netalignmc.GraphEdge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2},
	})

	// Candidate pairs: every vertex may map to itself or its cycle
	// neighbor; identity candidates score slightly higher.
	var candidates []netalignmc.CandidateEdge
	for v := 0; v < 4; v++ {
		candidates = append(candidates,
			netalignmc.CandidateEdge{A: v, B: v, W: 1.0},
			netalignmc.CandidateEdge{A: v, B: (v + 1) % 4, W: 0.8},
		)
	}
	l, err := netalignmc.NewCandidateGraph(4, 4, candidates)
	if err != nil {
		log.Fatal(err)
	}

	// α weighs the matched candidate scores, β the overlapped edges.
	p, err := netalignmc.NewProblem(a, b, l, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem: |E_L|=%d, nnz(S)=%d\n", p.L.NumEdges(), p.NNZS())

	res := p.BPAlign(netalignmc.BPOptions{
		Iterations: 50,
		Matcher:    netalignmc.MatcherSpec{Name: "approx"}, // parallel half-approximate rounding
	})

	fmt.Printf("objective:    %.3f\n", res.Objective)
	fmt.Printf("match weight: %.3f\n", res.MatchWeight)
	fmt.Printf("overlap:      %.0f edge pairs\n", res.Overlap)
	for va, vb := range res.Matching.MateA {
		if vb >= 0 {
			fmt.Printf("  A%d -> B%d\n", va, vb)
		}
	}
}
