// Matcher library tour: run every bipartite matcher on one random
// candidate graph, comparing weight and runtime — the §V design space
// the paper chooses the locally-dominant algorithm from.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	netalignmc "netalignmc"
)

func main() {
	// A random sparse candidate graph.
	rng := rand.New(rand.NewSource(7))
	var edges []netalignmc.CandidateEdge
	const n = 2000
	for a := 0; a < n; a++ {
		for k := 0; k < 6; k++ {
			edges = append(edges, netalignmc.CandidateEdge{
				A: a, B: rng.Intn(n), W: rng.Float64(),
			})
		}
	}
	l, err := netalignmc.NewCandidateGraph(n, n, edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bipartite graph: %d + %d vertices, %d edges\n\n", l.NA, l.NB, l.NumEdges())

	matchers := []struct {
		name string
		m    netalignmc.Matcher
	}{
		{"exact (SSP)", netalignmc.ExactMatcher},
		{"greedy", netalignmc.GreedyMatcher},
		{"locally-dominant", netalignmc.ApproxMatcher},
		{"suitor", netalignmc.SuitorMatcher},
		{"path-growing", netalignmc.PathGrowingMatcher},
		{"auction eps=1e-4", netalignmc.NewAuctionMatcher(1e-4)},
	}
	var exactW float64
	for _, entry := range matchers {
		start := time.Now()
		r := entry.m(l, 0)
		el := time.Since(start)
		if exactW == 0 {
			exactW = r.Weight
		}
		fmt.Printf("%-18s weight=%9.2f (%.4f of exact)  card=%5d  %v\n",
			entry.name, r.Weight, r.Weight/exactW, r.Card, el.Round(time.Microsecond))
	}

}
