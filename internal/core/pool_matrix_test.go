package core_test

// Thread-count matrix: one thread runs every region inline, more
// threads dispatch on the run's pool with the nnz-balanced partitions.
// Across thread counts only float reduction order can differ, so every
// run must return a valid matching whose objective agrees with the
// one-thread run to 1e-9.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
)

func TestThreadCountMatrixBP(t *testing.T) {
	p := smallSynthetic(t, 107)
	threadCountMatrix(t, p, func(threads int) *core.AlignResult {
		return p.BPAlign(core.BPOptions{
			Iterations: 10, Threads: threads, Chunk: 16,
			Matcher: matching.MatcherSpec{Name: "approx"},
		})
	})
}

func TestThreadCountMatrixMR(t *testing.T) {
	p := smallSynthetic(t, 109)
	threadCountMatrix(t, p, func(threads int) *core.AlignResult {
		return p.KlauAlign(core.MROptions{
			Iterations: 10, Threads: threads, Chunk: 16,
			Matcher: matching.MatcherSpec{Name: "approx"},
		})
	})
}

func threadCountMatrix(t *testing.T, p *core.Problem, solve func(threads int) *core.AlignResult) {
	t.Helper()
	var ref float64
	for _, threads := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("threads=%d", threads)
		r := solve(threads)
		if err := r.Matching.Validate(p.L); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if threads == 1 {
			ref = r.Objective
		} else if math.Abs(r.Objective-ref) > 1e-9 {
			t.Fatalf("%s: objective %g deviates from 1-thread %g", name, r.Objective, ref)
		}
	}
}

// TestSerialCancellableSolveStaysInline pins the one-thread path: under
// a cancellable context (as every daemon job runs) a Threads=1 solve
// runs every region inline — no pool dispatch, no goroutine spawn — and
// returns the same bits as the uncancellable solve.
func TestSerialCancellableSolveStaysInline(t *testing.T) {
	p := smallSynthetic(t, 111)
	solves := map[string]func(ctx context.Context) *core.AlignResult{
		"bp": func(ctx context.Context) *core.AlignResult {
			res, err := p.Align(ctx, core.Options{Method: core.MethodBP, BP: core.BPOptions{
				Iterations: 10, Threads: 1, Chunk: 16, Batch: 4,
				Matcher: matching.MatcherSpec{Name: "approx"},
			}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		"mr": func(ctx context.Context) *core.AlignResult {
			res, err := p.Align(ctx, core.Options{Method: core.MethodMR, MR: core.MROptions{
				Iterations: 10, Threads: 1, Chunk: 16,
				Matcher: matching.MatcherSpec{Name: "approx"},
			}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	}
	for name, solve := range solves {
		want := solve(context.Background())
		ctx, cancel := context.WithCancel(context.Background())
		before := parallel.Stats()
		got := solve(ctx)
		after := parallel.Stats()
		cancel()
		if d := after.PoolRegions - before.PoolRegions; d != 0 {
			t.Errorf("%s: %d pool regions dispatched at Threads=1, want 0", name, d)
		}
		if d := after.SpawnRegions - before.SpawnRegions; d != 0 {
			t.Errorf("%s: %d spawned regions at Threads=1, want 0", name, d)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("%s: cancellable objective %v != background %v", name, got.Objective, want.Objective)
		}
		if len(got.Matching.MateA) != len(want.Matching.MateA) {
			t.Fatalf("%s: mate length %d != %d", name, len(got.Matching.MateA), len(want.Matching.MateA))
		}
		for i := range want.Matching.MateA {
			if got.Matching.MateA[i] != want.Matching.MateA[i] {
				t.Fatalf("%s: mateA[%d] = %d, background solve has %d", name, i, got.Matching.MateA[i], want.Matching.MateA[i])
			}
		}
	}
}
