package core_test

// Tests for the hot-path zero-allocation claim: with a warm Workspace,
// Threads=1 and a reusable matcher spec, the per-iteration allocation
// count of a solve is exactly zero. Measured by the delta method —
// allocations of a 2N-iteration solve minus an N-iteration solve — so
// per-solve constants (tracker, option copies, hoisted closures)
// cancel and only per-iteration costs remain.

import (
	"context"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
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
	solve := func(iters int) {
		res, err := p.Align(context.Background(), core.Options{Method: core.MethodBP, BP: core.BPOptions{
			Iterations: iters, Threads: 1, Batch: 1,
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
	solve(4) // warm the workspace and matcher scratch
	if got := allocsPerIter(t, solve); got != 0 {
		t.Errorf("BP iteration allocates %.2f objects/iter, want 0", got)
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

// maxWarmMRAllocs bounds the allocations of a whole warm MR solve:
// the per-solve constants (result, tracker, options, the run's pool)
// come to 17 at Threads=1 and 27 at Threads=2. Rebuilding the row plan
// and the per-worker row scratch on every solve adds 120 to 250 more,
// as the matchers' search buffers grow back.
const maxWarmMRAllocs = 40

// TestMRWarmSolveBuildsNothing checks that a warm MR solve on the same
// problem and workspace reuses the row plan and the per-worker row
// scratch: its allocation count stays under maxWarmMRAllocs and does
// not depend on the problem's size.
func TestMRWarmSolveBuildsNothing(t *testing.T) {
	for _, threads := range []int{1, 2} {
		counts := map[int]float64{}
		for _, n := range []int{400, 2000} {
			o := gen.DefaultSynthetic(8, 1000003)
			o.N = n
			p, err := gen.Synthetic(o)
			if err != nil {
				t.Fatal(err)
			}
			ws := core.NewWorkspace()
			solve := func() {
				_, err := p.Align(context.Background(), core.Options{Method: core.MethodMR, MR: core.MROptions{
					Iterations: 3, Threads: threads,
					Matcher:        matching.MatcherSpec{Name: "approx"},
					Workspace:      ws,
					SkipFinalExact: true,
				}})
				if err != nil {
					t.Fatal(err)
				}
			}
			solve() // builds the plan and the scratch
			counts[n] = testing.AllocsPerRun(3, solve)
			if counts[n] > maxWarmMRAllocs {
				t.Errorf("threads=%d n=%d: a warm MR solve allocates %.0f objects, want at most %d",
					threads, n, counts[n], maxWarmMRAllocs)
			}
		}
		if counts[400] != counts[2000] {
			t.Errorf("threads=%d: warm MR solve allocations depend on size: %.0f at n=400, %.0f at n=2000",
				threads, counts[400], counts[2000])
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
		{core.Options{Method: core.MethodBP, BP: core.BPOptions{Iterations: 6, Matcher: matching.MatcherSpec{Name: "suitor"}}}},
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

// TestMRWorkspaceAcrossProblems alternates one workspace between two
// problems of different sizes: the row plan is per problem, so each
// switch must rebuild it, and every solve must match a fresh-workspace
// solve bit for bit, at one thread and with a worker pool.
func TestMRWorkspaceAcrossProblems(t *testing.T) {
	probs := []*core.Problem{smallSynthetic(t, 106), syntheticProblem(t, 150)}
	ws := core.NewWorkspace()
	for _, threads := range []int{1, 3} {
		for i := 0; i < 4; i++ {
			p := probs[i%2]
			o := core.MROptions{Iterations: 6, Threads: threads}
			want := p.KlauAlign(o)
			o.Workspace = ws
			got := p.KlauAlign(o)
			if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("threads=%d solve %d: shared-workspace objective %v != fresh %v", threads, i, got.Objective, want.Objective)
			}
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
