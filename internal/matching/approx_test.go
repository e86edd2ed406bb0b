package matching

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestApproxMatchesLocallyDominant checks that approx (Suitor) returns
// the paper's matcher's matching bit for bit, Weight included, on both
// the Matcher and the Reusable path, over heavily tied weights and at
// every thread count the solvers use. Under -race with GOMAXPROCS=8 it
// also stresses the locally-dominant matcher's concurrent lazy V_B
// candidates, which must not leave a mutual-candidate pair unmatched.
func TestApproxMatchesLocallyDominant(t *testing.T) {
	paper := MatcherSpec{Name: "locally-dominant", OneSided: true}
	approx := MatcherSpec{Name: "approx"}
	rng := rand.New(rand.NewSource(29))
	for _, threads := range []int{1, 2, 4, 8} {
		ldM, _ := paper.Matcher()
		apM, _ := approx.Matcher()
		ldR, _ := paper.Reusable()
		apR, _ := approx.Reusable()
		var ldOut, apOut Result
		for trial := 0; trial < 2000; trial++ {
			na, nb := rng.Intn(40), rng.Intn(40)
			g := tiedGraph(rng, na, nb, []float64{0.1, 0.3, 0.7}[trial%3], 2+trial%4)
			name := fmt.Sprintf("threads=%d trial=%d (na=%d nb=%d)", threads, trial, na, nb)
			want := ldM(g, threads)
			if got := apM(g, threads); !sameResult(got, want) {
				t.Fatalf("%s: approx %v w=%v, locally-dominant %v w=%v", name, got.MateA, got.Weight, want.MateA, want.Weight)
			}
			ldR(g, threads, &ldOut)
			apR(g, threads, &apOut)
			if !sameResult(&apOut, want) || !sameResult(&ldOut, want) {
				t.Fatalf("%s: reusable paths differ from the matcher", name)
			}
		}
	}
}
