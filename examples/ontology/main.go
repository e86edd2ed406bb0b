// Ontology alignment example: run BP with batched rounding on a
// stand-in for the lcsh-wiki subject-heading alignment, showing the
// per-step time breakdown (paper Figure 7) and the effect of the
// rounding batch size (Section IV-C).
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	netalignmc "netalignmc"
)

func main() {
	p, err := netalignmc.LcshWiki(0.01, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	st := netalignmc.StatsOf("lcsh-wiki (stand-in)", p)
	fmt.Printf("%s: |V_A|=%d |V_B|=%d |E_L|=%d nnz(S)=%d (threads=%d)\n\n",
		st.Name, st.VA, st.VB, st.EL, st.NnzS, runtime.GOMAXPROCS(0))

	const iters = 20
	for _, batch := range []int{1, 10, 20} {
		timer := netalignmc.NewStepTimer()
		start := time.Now()
		res := p.BPAlign(netalignmc.BPOptions{
			Iterations: iters,
			Batch:      batch,
			Gamma:      0.99,
			Matcher:    netalignmc.MatcherSpec{Name: "approx"},
			Timer:      timer,
		})
		fmt.Printf("BP(batch=%-2d): objective=%.2f overlap=%.0f elapsed=%v\n",
			batch, res.Objective, res.Overlap, time.Since(start).Round(time.Millisecond))
		fmt.Printf("%s\n", timer)
	}
	fmt.Println("The matching step dominates (paper: 58% at 40 threads for batch=20);")
	fmt.Println("batching lets the roundings run as concurrent tasks.")
}
