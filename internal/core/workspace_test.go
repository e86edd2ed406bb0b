package core_test

// Tests for the PR's two hot-path claims:
//
//  1. Zero allocation: with a warm Workspace, Threads=1 and a reusable
//     matcher spec, the per-iteration allocation count of a solve is
//     exactly zero. Measured by the delta method — allocations of a
//     2N-iteration solve minus an N-iteration solve — so per-solve
//     constants (tracker, option copies, hoisted closures) cancel and
//     only per-iteration costs remain.
//  2. Bit identity: the fused othermax+damping kernels produce bitwise
//     identical message iterates and results to the unfused path,
//     across the batch/threads/damping option axes.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

// allocsPerIter measures the per-iteration allocation count of solve
// by the delta method.
func allocsPerIter(t *testing.T, solve func(iters int)) float64 {
	t.Helper()
	const n = 8
	base := testing.AllocsPerRun(3, func() { solve(n) })
	double := testing.AllocsPerRun(3, func() { solve(2 * n) })
	return (double - base) / n
}

func TestBPSteadyStateZeroAlloc(t *testing.T) {
	p := smallSynthetic(t, 101)
	ws := core.NewWorkspace()
	for _, fused := range []bool{false, true} {
		solve := func(iters int) {
			res, err := p.Align(context.Background(), core.Options{Method: core.MethodBP, BP: core.BPOptions{
				Iterations: iters, Threads: 1, Batch: 1,
				Matcher:        matching.MatcherSpec{Name: "approx"},
				Workspace:      ws,
				FuseKernels:    fused,
				SkipFinalExact: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matching == nil {
				t.Fatal("no matching")
			}
		}
		solve(4) // warm the workspace and matcher scratch
		if got := allocsPerIter(t, solve); got != 0 {
			t.Errorf("fused=%v: BP iteration allocates %.2f objects/iter, want 0", fused, got)
		}
	}
}

func TestMRSteadyStateZeroAlloc(t *testing.T) {
	p := smallSynthetic(t, 102)
	ws := core.NewWorkspace()
	solve := func(iters int) {
		res, err := p.Align(context.Background(), core.Options{Method: core.MethodMR, MR: core.MROptions{
			Iterations: iters, Threads: 1,
			Matcher:        matching.MatcherSpec{Name: "approx"},
			Workspace:      ws,
			SkipFinalExact: true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching == nil {
			t.Fatal("no matching")
		}
	}
	solve(4)
	if got := allocsPerIter(t, solve); got != 0 {
		t.Errorf("MR iteration allocates %.2f objects/iter, want 0", got)
	}
}

// TestPooledSteadyStateLowAlloc pins the pool's point: multi-thread
// iterations stop paying per-region goroutine spawns, so a warm
// pooled solve stays under one allocation per iteration even at
// Threads=4 (the remaining fraction is the occasional shared-pool
// fallback inside reductions). Measured by the same delta method as
// the Threads=1 zero-alloc tests.
func TestPooledSteadyStateLowAlloc(t *testing.T) {
	p := smallSynthetic(t, 105)
	ws := core.NewWorkspace()
	solves := map[string]func(iters int){
		"bp-batch20": func(iters int) {
			_, err := p.Align(context.Background(), core.Options{Method: core.MethodBP, BP: core.BPOptions{
				Iterations: iters, Threads: 4, Batch: 20,
				Matcher:        matching.MatcherSpec{Name: "approx"},
				Workspace:      ws,
				SkipFinalExact: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
		},
		"mr": func(iters int) {
			_, err := p.Align(context.Background(), core.Options{Method: core.MethodMR, MR: core.MROptions{
				Iterations: iters, Threads: 4,
				Matcher:        matching.MatcherSpec{Name: "approx"},
				Workspace:      ws,
				SkipFinalExact: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, solve := range solves {
		solve(4) // warm the workspace and matcher scratch
		if got := allocsPerIter(t, solve); got >= 1 {
			t.Errorf("%s: pooled 4-thread iteration allocates %.2f objects/iter, want < 1", name, got)
		}
	}
}

// TestFusedKernelsBitIdentical pins the fusion contract: identical
// float operations in identical order, so the damped message iterates
// (and everything downstream) are bitwise equal, not merely close.
func TestFusedKernelsBitIdentical(t *testing.T) {
	p := smallSynthetic(t, 103)
	for _, threads := range []int{1, 3} {
		for _, batch := range []int{1, 4} {
			for _, damp := range []core.Damping{core.DampPower, core.DampConstant, core.DampNone} {
				name := fmt.Sprintf("threads=%d/batch=%d/damp=%v", threads, batch, damp)
				run := func(fused bool) ([]uint64, *core.AlignResult) {
					var bits []uint64
					res := p.BPAlign(core.BPOptions{
						Iterations: 12, Batch: batch, Threads: threads,
						Damp: damp, Chunk: 16,
						Matcher:     matching.MatcherSpec{Name: "approx"},
						FuseKernels: fused,
						Observer: func(iter int, y, z []float64) {
							for _, v := range y {
								bits = append(bits, math.Float64bits(v))
							}
							for _, v := range z {
								bits = append(bits, math.Float64bits(v))
							}
						},
					})
					return bits, res
				}
				plainBits, plainRes := run(false)
				fusedBits, fusedRes := run(true)
				if len(plainBits) != len(fusedBits) {
					t.Fatalf("%s: observed %d vs %d message words", name, len(plainBits), len(fusedBits))
				}
				for i := range plainBits {
					if plainBits[i] != fusedBits[i] {
						t.Fatalf("%s: message word %d differs: %x vs %x", name, i, plainBits[i], fusedBits[i])
					}
				}
				if math.Float64bits(plainRes.Objective) != math.Float64bits(fusedRes.Objective) {
					t.Fatalf("%s: objective %v vs %v", name, plainRes.Objective, fusedRes.Objective)
				}
				if plainRes.BestIter != fusedRes.BestIter {
					t.Fatalf("%s: bestIter %d vs %d", name, plainRes.BestIter, fusedRes.BestIter)
				}
			}
		}
	}
}

// TestWorkspaceReuseAcrossMethodsAndSolves checks that one workspace
// can serve BP, then MR, then BP again (with a different matcher spec)
// and still produce the same results as fresh-workspace solves.
func TestWorkspaceReuseAcrossMethodsAndSolves(t *testing.T) {
	p := smallSynthetic(t, 104)
	ws := core.NewWorkspace()
	ctx := context.Background()
	type step struct {
		o core.Options
	}
	steps := []step{
		{core.Options{Method: core.MethodBP, BP: core.BPOptions{Iterations: 6, Matcher: matching.MatcherSpec{Name: "approx"}}}},
		{core.Options{Method: core.MethodMR, MR: core.MROptions{Iterations: 6}}},
		{core.Options{Method: core.MethodBP, BP: core.BPOptions{Iterations: 6, FuseKernels: true, Matcher: matching.MatcherSpec{Name: "suitor"}}}},
	}
	for i, st := range steps {
		shared := st.o
		if shared.Method == core.MethodBP {
			shared.BP.Workspace = ws
		} else {
			shared.MR.Workspace = ws
		}
		got, err := p.Align(ctx, shared)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := p.Align(ctx, st.o)
		if err != nil {
			t.Fatalf("step %d (fresh): %v", i, err)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("step %d: shared-workspace objective %v != fresh %v", i, got.Objective, want.Objective)
		}
		if err := got.Matching.Validate(p.L); err != nil {
			t.Errorf("step %d: %v", i, err)
		}
	}
}

// TestAlignUnknownMethod pins the error contract of the unified entry
// point.
func TestAlignUnknownMethod(t *testing.T) {
	p := smallSynthetic(t, 105)
	res, err := p.Align(context.Background(), core.Options{Method: core.Method(99)})
	if err == nil {
		t.Fatal("want error for unknown method")
	}
	if res == nil || res.Err == nil {
		t.Fatal("unknown method must still return an empty result carrying the error")
	}
}

// TestMethodTextRoundTrip pins Method's text encoding, which travels
// through CLI flags and job JSON.
func TestMethodTextRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		text string
		want core.Method
	}{
		{"bp", core.MethodBP}, {"BP", core.MethodBP},
		{"mr", core.MethodMR}, {"MR", core.MethodMR}, {"klau", core.MethodMR},
	} {
		var m core.Method
		if err := m.UnmarshalText([]byte(tc.text)); err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if m != tc.want {
			t.Errorf("%q parsed as %v, want %v", tc.text, m, tc.want)
		}
	}
	var bad core.Method
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Error("want error for unknown method text")
	}
}
