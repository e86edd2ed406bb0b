package matching_test

import (
	"fmt"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/matching"
)

func exampleGraph() *bipartite.Graph {
	g, err := bipartite.New(2, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 2}, {A: 1, B: 0, W: 3},
	})
	if err != nil {
		panic(err)
	}
	return g
}

func ExampleExact() {
	r := matching.Exact(exampleGraph(), 1)
	fmt.Printf("weight=%.0f card=%d mates=%v\n", r.Weight, r.Card, r.MateA)
	// Output:
	// weight=5 card=2 mates=[1 0]
}

func ExampleLocallyDominant() {
	r := matching.LocallyDominant(exampleGraph(), 2, matching.LocallyDominantOptions{OneSidedInit: true})
	fmt.Printf("weight=%.0f card=%d\n", r.Weight, r.Card)
	// Output:
	// weight=5 card=2
}

func ExampleSuitor() {
	r := matching.Suitor(exampleGraph(), 1)
	fmt.Printf("weight=%.0f card=%d\n", r.Weight, r.Card)
	// Output:
	// weight=5 card=2
}

func ExampleAuction() {
	r := matching.Auction(exampleGraph(), 1, 1e-9)
	fmt.Printf("weight=%.0f card=%d\n", r.Weight, r.Card)
	// Output:
	// weight=5 card=2
}

func ExampleExactSubset() {
	g := exampleGraph()
	// Restrict to edges 0 and 2 with custom weights.
	selected, value := matching.ExactSubset(g, []int{0, 2}, []float64{10, 1})
	fmt.Printf("selected=%v value=%.0f\n", selected, value)
	// Output:
	// selected=[0] value=10
}
