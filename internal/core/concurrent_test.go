package core_test

import (
	"context"
	"sync"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
)

// TestConcurrentSolvesMatchSerial mirrors the netalignd worker pool:
// several independent solver runs execute concurrently (including
// several runs over the same shared Problem) and every result must be
// identical to the serial run. Under -race this also proves Problem is
// safe to share read-only across solves.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	type job struct {
		p      *core.Problem
		method string
	}
	var jobs []job
	for seed := int64(1); seed <= 3; seed++ {
		o := gen.DefaultSynthetic(3, seed)
		o.N = 50
		p, err := gen.Synthetic(o)
		if err != nil {
			t.Fatal(err)
		}
		// Two jobs share each problem: one per method.
		jobs = append(jobs, job{p, "bp"}, job{p, "mr"})
	}

	run := func(j job) *core.AlignResult {
		if j.method == "bp" {
			res, err := j.p.BPAlignCtx(context.Background(), core.BPOptions{
				Iterations: 12, Threads: 1, Matcher: matching.MatcherSpec{Name: "approx"},
			})
			if err != nil {
				t.Error(err)
			}
			return res
		}
		res, err := j.p.MRAlignCtx(context.Background(), core.MROptions{
			Iterations: 12, Threads: 1, Matcher: matching.MatcherSpec{Name: "approx"},
		})
		if err != nil {
			t.Error(err)
		}
		return res
	}

	serial := make([]*core.AlignResult, len(jobs))
	for i, j := range jobs {
		serial[i] = run(j)
	}

	// Each job runs three times concurrently, all in flight at once.
	const replicas = 3
	results := make([][]*core.AlignResult, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		results[i] = make([]*core.AlignResult, replicas)
		for r := 0; r < replicas; r++ {
			wg.Add(1)
			go func(i, r int, j job) {
				defer wg.Done()
				results[i][r] = run(j)
			}(i, r, j)
		}
	}
	wg.Wait()

	for i := range jobs {
		for r := 0; r < replicas; r++ {
			got := results[i][r]
			if got == nil {
				t.Fatalf("job %d replica %d returned nil", i, r)
			}
			if got.Objective != serial[i].Objective {
				t.Errorf("job %d replica %d: objective %v, serial %v",
					i, r, got.Objective, serial[i].Objective)
			}
			if len(got.Matching.MateA) != len(serial[i].Matching.MateA) {
				t.Fatalf("job %d replica %d: mate length mismatch", i, r)
			}
			for a, b := range got.Matching.MateA {
				if serial[i].Matching.MateA[a] != b {
					t.Errorf("job %d replica %d: MateA[%d] = %d, serial %d",
						i, r, a, b, serial[i].Matching.MateA[a])
					break
				}
			}
		}
	}
}
