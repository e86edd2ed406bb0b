package core_test

import (
	"context"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
)

// TestBPRoundingDeterministic guards against scheduling-dependent
// tie-breaking in BP's batched rounding: each flush rounds its pending
// iterates (y and z of one or more iterations) as parallel tasks, and
// the tracker used to receive them in goroutine completion order, so
// two iterates tied on the objective could swap which matching won
// from run to run — even with Threads=1, since the task runner spawns
// a goroutine per item. The flush now offers results in batch order,
// making repeated single-threaded runs (and checkpointed resumes)
// bit-identical for any batch size.
func TestBPRoundingDeterministic(t *testing.T) {
	o := gen.DefaultSynthetic(3, 2) // this seed produces an objective tie
	o.N = 50
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	run := func(batch int) *core.AlignResult {
		res, err := p.BPAlignCtx(context.Background(), core.BPOptions{
			Iterations: 12, Batch: batch, Threads: 1, Matcher: matching.MatcherSpec{Name: "approx"},
			Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, batch := range []int{1, 4, 8} {
		first := run(batch)
		for i := 0; i < 4; i++ {
			res := run(batch)
			if res.Objective != first.Objective || res.BestIter != first.BestIter {
				t.Fatalf("batch %d run %d: objective/bestIter %v/%d != %v/%d",
					batch, i, res.Objective, res.BestIter, first.Objective, first.BestIter)
			}
			for a, b := range res.Matching.MateA {
				if first.Matching.MateA[a] != b {
					t.Fatalf("batch %d run %d: MateA[%d] = %d, first run %d",
						batch, i, a, b, first.Matching.MateA[a])
				}
			}
			for e, obj := range res.ObjectiveTrace {
				if first.ObjectiveTrace[e] != obj {
					t.Fatalf("batch %d run %d: trace[%d] = %v, first run %v",
						batch, i, e, obj, first.ObjectiveTrace[e])
				}
			}
		}
	}
}
