// Command benchmatch benchmarks the matching algorithms in isolation
// on random bipartite graphs — the experiment style of Halappanavar et
// al., whose multicore locally-dominant matcher the paper adopts.
//
// Usage:
//
//	benchmatch -n 20000 -deg 8 -threads 1,2,4 -reps 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/matching"
)

func main() {
	var (
		n       = flag.Int("n", 10000, "vertices per side")
		deg     = flag.Float64("deg", 8, "expected degree")
		seed    = flag.Int64("seed", 1, "random seed")
		reps    = flag.Int("reps", 3, "repetitions (minimum time reported)")
		threads = flag.String("threads", "1", "comma-separated thread counts for the parallel matchers")
		exact   = flag.Bool("exact", false, "also run the exact matcher (slow on large graphs)")
	)
	flag.Parse()

	var threadList []int
	for _, part := range strings.Split(*threads, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			fmt.Fprintf(os.Stderr, "benchmatch: bad thread count %q\n", part)
			os.Exit(2)
		}
		threadList = append(threadList, t)
	}

	rng := rand.New(rand.NewSource(*seed))
	p := *deg / float64(*n)
	var edges []bipartite.WeightedEdge
	for a := 0; a < *n; a++ {
		// Expected deg candidates per vertex, geometric-free sampling
		// is overkill here; binomial thinning per vertex suffices.
		k := 0
		for k < int(*deg*2+4) {
			if rng.Float64() < p*float64(*n)/(*deg*2+4) {
				edges = append(edges, bipartite.WeightedEdge{
					A: a, B: rng.Intn(*n), W: rng.Float64(),
				})
			}
			k++
		}
	}
	g, err := bipartite.New(*n, *n, edges)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmatch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d + %d vertices, %d edges\n\n", g.NA, g.NB, g.NumEdges())

	bench := func(name string, m matching.Matcher, t int) {
		best := time.Duration(0)
		var r *matching.Result
		for i := 0; i < *reps; i++ {
			start := time.Now()
			r = m(g, t)
			el := time.Since(start)
			if best == 0 || el < best {
				best = el
			}
		}
		if err := r.Validate(g); err != nil {
			fmt.Fprintf(os.Stderr, "benchmatch: %s: invalid matching: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%-26s t=%-3d weight=%12.2f card=%8d time=%v\n",
			name, t, r.Weight, r.Card, best.Round(time.Microsecond))
	}

	if *exact {
		bench("exact", matching.Exact, 1)
	}
	bench("greedy", matching.Greedy, 1)
	bench("path-growing", matching.PathGrowing, 1)
	bench("auction(1e-4)", matching.NewAuctionMatcher(1e-4), 1)
	for _, t := range threadList {
		bench("locally-dominant", matching.NewLocallyDominantMatcher(matching.LocallyDominantOptions{}), t)
		bench("locally-dominant-1side", matching.NewLocallyDominantMatcher(matching.LocallyDominantOptions{OneSidedInit: true}), t)
		bench("suitor", matching.Suitor, t)
	}

}
