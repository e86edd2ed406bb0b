// Computational steering example (paper Section IX): run an
// alignment, inspect it with a report against the planted truth,
// "fix" a problematic match by removing the offending candidate from
// L, pin a known-good match, and recompute — the human-in-the-loop
// workflow the paper argues the 36-second solve time enables.
package main

import (
	"fmt"
	"log"

	netalignmc "netalignmc"
)

func main() {
	// A synthetic problem with a planted identity alignment and heavy
	// candidate noise, so the first solve gets some matches wrong.
	o := netalignmc.DefaultSynthetic(12, 99)
	o.N = 120
	p, err := netalignmc.NewSyntheticProblem(o)
	if err != nil {
		log.Fatal(err)
	}

	solve := func(p *netalignmc.Problem) *netalignmc.AlignResult {
		return p.BPAlign(netalignmc.BPOptions{
			Iterations: 60,
			Matcher:    netalignmc.MatcherSpec{Name: "approx"},
		})
	}
	res := solve(p)
	fmt.Printf("initial solve: objective=%.2f, correct=%.1f%%\n",
		res.Objective, 100*netalignmc.CorrectMatchFraction(res.Matching))

	// The analyst spots wrong matches (here: any non-identity pair)
	// and removes those candidate links from L.
	var wrong []int
	for a, b := range res.Matching.MateA {
		if b >= 0 && b != a {
			if e, ok := p.L.Find(a, b); ok {
				wrong = append(wrong, e)
			}
		}
	}
	fmt.Printf("removing %d problematic candidate links and re-solving...\n", len(wrong))
	p2, err := p.RemoveCandidates(wrong, 0)
	if err != nil {
		log.Fatal(err)
	}
	res2 := solve(p2)
	fmt.Printf("after removal: objective=%.2f, correct=%.1f%%\n",
		res2.Objective, 100*netalignmc.CorrectMatchFraction(res2.Matching))

	// Pin a known-correct match: vertex 0 must map to vertex 0.
	if e, ok := p2.L.Find(0, 0); ok {
		p3, err := p2.PinCandidates([]int{e}, 0)
		if err != nil {
			log.Fatal(err)
		}
		res3 := solve(p3)
		fmt.Printf("after pinning A0->B0: A0 maps to B%d (correct=%.1f%%)\n",
			res3.Matching.MateA[0], 100*netalignmc.CorrectMatchFraction(res3.Matching))
	}
}
