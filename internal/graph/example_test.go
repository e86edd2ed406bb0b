package graph_test

import (
	"fmt"
	"math/rand"

	"netalignmc/internal/graph"
)

func ExampleBuilder() {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 0) // duplicate, dropped
	g := b.Build()
	fmt.Println(g.NumVertices(), g.NumEdges(), g.Neighbors(1))
	// Output:
	// 3 2 [0 2]
}

func ExamplePowerLaw() {
	rng := rand.New(rand.NewSource(1))
	g := graph.PowerLaw(rng, 400, 2.1, 1, 30)
	fmt.Println(g.NumVertices() == 400, g.NumEdges() > 0)
	// Output:
	// true true
}
