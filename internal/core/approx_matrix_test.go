package core_test

// approx runs Suitor; the paper's matcher is locally-dominant with
// one-sided initialization. Both compute the greedy matching under the
// strict (weight, vertex id) order, so swapping one for the other must
// not move a single bit of a solve: objective, alignment, tracker
// state or checkpoint bytes.

import (
	"fmt"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
)

var paperMatcher = matching.MatcherSpec{Name: "locally-dominant", OneSided: true}

// tiedSynthetic is a synthetic problem whose L weights are all 1 (the
// generator's identity and noise weights), so every rounding starts
// from ties broken only by the iterates.
func tiedSynthetic(t *testing.T, n int, seed int64) *core.Problem {
	t.Helper()
	o := gen.DefaultSynthetic(6, seed)
	o.N = n
	o.MaxDeg = 12
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApproxMatchesLocallyDominantBP(t *testing.T) {
	p := tiedSynthetic(t, 120, 91)
	for _, batch := range []int{1, 10, 20} {
		for _, threads := range []int{1, 2, 4, 8} {
			run := func(spec matching.MatcherSpec) (*core.AlignResult, [][]byte) {
				o := core.BPOptions{
					Iterations: 24, Batch: batch, Threads: threads,
					Matcher: spec, CheckpointEvery: 5,
				}
				cks := checkpointBytes(&o.CheckpointFunc)
				return p.BPAlign(o), *cks
			}
			ld, ldCks := run(paperMatcher)
			ap, apCks := run(matching.MatcherSpec{Name: "approx"})
			sameRun(t, fmt.Sprintf("BP batch=%d threads=%d: approx vs %v", batch, threads, paperMatcher),
				ld, ap, ldCks, apCks)
		}
	}
}

func TestApproxMatchesLocallyDominantMR(t *testing.T) {
	p := tiedSynthetic(t, 120, 97)
	for _, threads := range []int{1, 2, 4, 8} {
		run := func(spec matching.MatcherSpec) (*core.AlignResult, [][]byte) {
			o := core.MROptions{
				Iterations: 24, Threads: threads, MStep: 5,
				Matcher: spec, CheckpointEvery: 5,
			}
			cks := checkpointBytes(&o.CheckpointFunc)
			return p.KlauAlign(o), *cks
		}
		ld, ldCks := run(paperMatcher)
		ap, apCks := run(matching.MatcherSpec{Name: "approx"})
		sameRun(t, fmt.Sprintf("MR threads=%d: approx vs %v", threads, paperMatcher),
			ld, ap, ldCks, apCks)
	}
}
