// PPI alignment example: reproduce the paper's bioinformatics
// workflow on a synthetic stand-in for the dmela-scere protein
// interaction problem, and demonstrate the paper's key observation —
// belief propagation loses essentially nothing when its exact
// rounding step is replaced by the parallel half-approximate matcher,
// while Klau's method is more sensitive.
package main

import (
	"fmt"
	"log"
	"time"

	netalignmc "netalignmc"
)

func main() {
	// A laptop-sized stand-in for the fly/yeast PPI alignment
	// (Table II problem "dmela-scere"); scale up toward 1.0 to
	// approach the published sizes.
	p, err := netalignmc.DmelaScere(0.05, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	st := netalignmc.StatsOf("dmela-scere (stand-in)", p)
	fmt.Printf("%s: |V_A|=%d |V_B|=%d |E_L|=%d nnz(S)=%d\n\n",
		st.Name, st.VA, st.VB, st.EL, st.NnzS)

	const iters = 30
	run := func(name string, f func() *netalignmc.AlignResult) {
		start := time.Now()
		res := f()
		fmt.Printf("%-12s objective=%9.2f  weight=%8.2f  overlap=%6.0f  (%v)\n",
			name, res.Objective, res.MatchWeight, res.Overlap,
			time.Since(start).Round(time.Millisecond))
	}

	run("BP exact", func() *netalignmc.AlignResult {
		return p.BPAlign(netalignmc.BPOptions{Iterations: iters})
	})
	run("BP approx", func() *netalignmc.AlignResult {
		return p.BPAlign(netalignmc.BPOptions{Iterations: iters, Matcher: netalignmc.MatcherSpec{Name: "approx"}})
	})
	run("MR exact", func() *netalignmc.AlignResult {
		return p.KlauAlign(netalignmc.MROptions{Iterations: iters})
	})
	run("MR approx", func() *netalignmc.AlignResult {
		return p.KlauAlign(netalignmc.MROptions{Iterations: iters, Matcher: netalignmc.MatcherSpec{Name: "approx"}})
	})

	fmt.Println("\nExpected shape (paper Figs 2-3): the two BP rows nearly identical;")
	fmt.Println("MR approx at or below MR exact.")
}
