package core_test

import (
	"fmt"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/graph"
)

// ExamplePattern demonstrates the paper's transpose trick: a matrix
// kept as a value array on S's symmetric pattern is transposed by
// permuting the values through SPerm, never touching the pattern.
func ExamplePattern() {
	a := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	b := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	l, err := bipartite.New(2, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 1, B: 0, W: 1}, {A: 1, B: 1, W: 1},
	})
	if err != nil {
		panic(err)
	}
	p, err := core.NewProblem(a, b, l, 1, 1, 1)
	if err != nil {
		panic(err)
	}
	vals := []float64{5, 6, 7, 8} // one value per stored entry of S
	transposed := make([]float64, len(vals))
	for k, kt := range p.SPerm {
		transposed[k] = vals[kt]
	}
	fmt.Println(p.S.Ptr, p.S.Col)
	fmt.Println(vals, "->", transposed)
	// Output:
	// [0 1 2 3 4] [3 2 1 0]
	// [5 6 7 8] -> [8 7 6 5]
}
