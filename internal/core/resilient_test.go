package core_test

// Resilience acceptance tests: cancellation returns the best-so-far
// matching in bounded time, checkpointed runs resume bit for bit, and
// injected NaNs at every named solver step either roll back cleanly or
// stop with StopNumerics — never a NaN objective, never a panic.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/faults"
	"netalignmc/internal/gen"
	"netalignmc/internal/problemio"
)

// syntheticProblem builds a deterministic mid-sized instance: large
// enough that BP has real work per iteration, small enough for fast
// tests.
func syntheticProblem(t testing.TB, n int) *core.Problem {
	t.Helper()
	o := gen.DefaultSynthetic(4, 42)
	o.N = n
	o.Threads = 2
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkValid asserts the invariants every resilient exit must uphold:
// a structurally valid matching and a finite objective.
func checkValid(t *testing.T, p *core.Problem, res *core.AlignResult) {
	t.Helper()
	if res == nil || res.Matching == nil {
		t.Fatal("nil result or matching")
	}
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	if math.IsNaN(res.Objective) || math.IsInf(res.Objective, 0) {
		t.Fatalf("non-finite objective %g", res.Objective)
	}
}

// The cancellation tests run at the default thread count (pooled
// regions) and at Threads=1, where every region runs inline and only
// the serial path's ctx polling can stop a sweep.
var cancelThreadCounts = []int{0, 1}

func TestFaultBPCancelledMidRunReturnsPromptly(t *testing.T) {
	p := syntheticProblem(t, 600)
	for _, threads := range cancelThreadCounts {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(100 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			// An iteration budget that would run for minutes uncancelled.
			res, err := p.BPAlignCtx(ctx, core.BPOptions{Iterations: 1_000_000, Threads: threads})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("cancellation is not an error: %v", err)
			}
			if elapsed >= 2*time.Second {
				t.Fatalf("cancelled run took %v, want < 2s", elapsed)
			}
			if res.Stopped != core.StopCancelled {
				t.Fatalf("stopped = %v, want cancelled", res.Stopped)
			}
			checkValid(t, p, res)
		})
	}
}

func TestFaultMRCancelledMidRun(t *testing.T) {
	p := syntheticProblem(t, 400)
	for _, threads := range cancelThreadCounts {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(50 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			res, err := p.MRAlignCtx(ctx, core.MROptions{Iterations: 1_000_000, Threads: threads})
			if err != nil {
				t.Fatalf("cancellation is not an error: %v", err)
			}
			if e := time.Since(start); e >= 2*time.Second {
				t.Fatalf("cancelled run took %v", e)
			}
			if res.Stopped != core.StopCancelled {
				t.Fatalf("stopped = %v", res.Stopped)
			}
			checkValid(t, p, res)
		})
	}
}

func TestFaultBPDeadline(t *testing.T) {
	p := syntheticProblem(t, 400)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	res, err := p.BPAlignCtx(ctx, core.BPOptions{Iterations: 1_000_000})
	if err != nil {
		t.Fatalf("deadline is not an error: %v", err)
	}
	if res.Stopped != core.StopDeadline {
		t.Fatalf("stopped = %v, want deadline", res.Stopped)
	}
	checkValid(t, p, res)
}

func TestFaultPreCancelledContext(t *testing.T) {
	p := syntheticProblem(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.BPAlignCtx(ctx, core.BPOptions{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != core.StopCancelled || res.Iterations != 0 {
		t.Fatalf("stopped=%v iterations=%d", res.Stopped, res.Iterations)
	}
	checkValid(t, p, res)
}

// runBPRecording runs BP with an observer that snapshots each
// iteration's damped y iterate.
func runBPRecording(p *core.Problem, o core.BPOptions) (map[int][]float64, *core.AlignResult) {
	iterates := make(map[int][]float64)
	o.Observer = func(iter int, y, z []float64) {
		iterates[iter] = append([]float64(nil), y...)
	}
	res := p.BPAlign(o)
	return iterates, res
}

func TestBPCheckpointResumeBitIdentical(t *testing.T) {
	p := syntheticProblem(t, 80)
	base := core.BPOptions{Iterations: 12, Threads: 1}

	// Uninterrupted reference run, checkpointing at iteration 6. The
	// checkpoint goes through the problemio serializer, so the test
	// covers the full save/load chain, not just the in-memory structs.
	var saved bytes.Buffer
	ref := base
	ref.CheckpointEvery = 6
	ref.CheckpointFunc = func(c *core.Checkpoint) error {
		if c.Iter == 6 {
			saved.Reset()
			return problemio.WriteCheckpoint(&saved, c)
		}
		return nil
	}
	refIterates, refRes := runBPRecording(p, ref)
	if refRes.Err != nil {
		t.Fatal(refRes.Err)
	}
	if saved.Len() == 0 {
		t.Fatal("checkpoint at iteration 6 never written")
	}

	ck, err := problemio.ReadCheckpoint(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Resume = ck
	resIterates, resRes := runBPRecording(p, resumed)
	if resRes.Err != nil {
		t.Fatal(resRes.Err)
	}

	for iter := 7; iter <= 12; iter++ {
		want, got := refIterates[iter], resIterates[iter]
		if want == nil || got == nil {
			t.Fatalf("iteration %d missing (ref %v, resumed %v)", iter, want != nil, got != nil)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("iteration %d, y[%d]: %x vs %x", iter, i, want[i], got[i])
			}
		}
	}
	if _, early := resIterates[6]; early {
		t.Fatal("resumed run re-executed a checkpointed iteration")
	}
	if math.Float64bits(refRes.Objective) != math.Float64bits(resRes.Objective) {
		t.Fatalf("final objectives differ: %v vs %v", refRes.Objective, resRes.Objective)
	}
	if refRes.Matching.Card != resRes.Matching.Card {
		t.Fatalf("final matchings differ: card %d vs %d", refRes.Matching.Card, resRes.Matching.Card)
	}
}

func TestMRCheckpointResumeBitIdentical(t *testing.T) {
	p := syntheticProblem(t, 80)
	base := core.MROptions{Iterations: 12, Threads: 1}

	record := func(o core.MROptions) (map[int][]float64, *core.AlignResult) {
		iterates := make(map[int][]float64)
		o.Observer = func(iter int, wbar []float64, upper, obj float64) {
			iterates[iter] = append([]float64(nil), wbar...)
		}
		res := p.KlauAlign(o)
		return iterates, res
	}

	var saved *core.Checkpoint
	ref := base
	ref.CheckpointEvery = 5
	ref.CheckpointFunc = func(c *core.Checkpoint) error {
		if c.Iter == 5 {
			var buf bytes.Buffer
			if err := problemio.WriteCheckpoint(&buf, c); err != nil {
				return err
			}
			var err error
			saved, err = problemio.ReadCheckpoint(&buf)
			return err
		}
		return nil
	}
	refIterates, refRes := record(ref)
	if refRes.Err != nil {
		t.Fatal(refRes.Err)
	}
	if saved == nil {
		t.Skip("MR converged before iteration 5; nothing to resume")
	}

	resumed := base
	resumed.Resume = saved
	resIterates, resRes := record(resumed)
	if resRes.Err != nil {
		t.Fatal(resRes.Err)
	}
	for iter := 6; iter <= 12; iter++ {
		want, got := refIterates[iter], resIterates[iter]
		if want == nil && got == nil {
			continue // both converged before this iteration
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("iteration %d: ref ran %v, resumed ran %v", iter, want != nil, got != nil)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("iteration %d, wbar[%d]: %x vs %x", iter, i, want[i], got[i])
			}
		}
	}
	if math.Float64bits(refRes.Objective) != math.Float64bits(resRes.Objective) {
		t.Fatalf("final objectives differ: %v vs %v", refRes.Objective, resRes.Objective)
	}
}

func TestResumeRejectsWrongProblem(t *testing.T) {
	p := syntheticProblem(t, 40)
	other := syntheticProblem(t, 50)
	var ck *core.Checkpoint
	res := p.BPAlign(core.BPOptions{
		Iterations:      4,
		CheckpointEvery: 2,
		CheckpointFunc:  func(c *core.Checkpoint) error { ck = c; return nil },
	})
	if res.Err != nil || ck == nil {
		t.Fatalf("checkpointing failed: %v", res.Err)
	}
	// Wrong problem.
	bad, err := other.BPAlignCtx(context.Background(), core.BPOptions{Iterations: 4, Resume: ck})
	if err == nil || bad.Err == nil {
		t.Fatal("checkpoint from a different problem accepted")
	}
	// Wrong method.
	badMR, err := p.MRAlignCtx(context.Background(), core.MROptions{Iterations: 4, Resume: ck})
	if err == nil || badMR.Err == nil {
		t.Fatal("bp checkpoint accepted by mr")
	}
}

// bpSteps are every named BP step a fault can strike.
var bpSteps = []string{
	core.BPStepBoundF, core.BPStepComputeD, core.BPStepOthermax,
	core.BPStepUpdateS, core.BPStepDamping, core.BPStepMatch,
}

func TestFaultBPTransientNaNEachStep(t *testing.T) {
	p := syntheticProblem(t, 60)
	for _, step := range bpSteps {
		step := step
		t.Run(step, func(t *testing.T) {
			plan := faults.NewPlan(11).WithNaN(faults.NaNInjection{
				Step: step, Iter: 3, Count: 2, Once: true,
			})
			res, err := p.BPAlignCtx(context.Background(), core.BPOptions{
				Iterations: 8, Faults: plan,
			})
			if err != nil {
				t.Fatalf("transient fault became an error: %v", err)
			}
			if plan.Strikes() == 0 {
				t.Fatal("fault never struck")
			}
			// A single transient fault must be absorbed: rolled back
			// (or skipped, for the match step) and the run completes.
			if res.Stopped == core.StopNumerics {
				t.Fatalf("transient fault escalated to StopNumerics (failures=%d)", res.NumericFailures)
			}
			if res.NumericFailures == 0 {
				t.Fatal("guard did not record the fault")
			}
			checkValid(t, p, res)
		})
	}
}

func TestFaultBPPersistentNaNEachStep(t *testing.T) {
	p := syntheticProblem(t, 60)
	for _, step := range bpSteps {
		step := step
		t.Run(step, func(t *testing.T) {
			// Persistent: the fault re-strikes when the guard rolls
			// back and retries the iteration, so it must escalate.
			plan := faults.NewPlan(13).WithNaN(faults.NaNInjection{
				Step: step, Iter: 3, Count: 1, Once: false,
			})
			res, err := p.BPAlignCtx(context.Background(), core.BPOptions{
				Iterations: 8, Faults: plan,
			})
			if err != nil {
				t.Fatalf("numerics stop is not an error: %v", err)
			}
			if res.Stopped != core.StopNumerics {
				t.Fatalf("stopped = %v (failures=%d), want numerics", res.Stopped, res.NumericFailures)
			}
			if res.NumericFailures == 0 {
				t.Fatal("no failures recorded")
			}
			checkValid(t, p, res)
		})
	}
}

var mrSteps = []string{
	core.MRStepRowMatch, core.MRStepDaxpy, core.MRStepMatch, core.MRStepUpdateU,
}

func TestFaultMRTransientNaNEachStep(t *testing.T) {
	p := syntheticProblem(t, 60)
	for _, step := range mrSteps {
		step := step
		t.Run(step, func(t *testing.T) {
			plan := faults.NewPlan(17).WithNaN(faults.NaNInjection{
				Step: step, Iter: 2, Count: 2, Once: true,
			})
			res, err := p.MRAlignCtx(context.Background(), core.MROptions{
				Iterations: 8, Faults: plan,
			})
			if err != nil {
				t.Fatalf("transient fault became an error: %v", err)
			}
			if plan.Strikes() == 0 {
				t.Fatal("fault never struck")
			}
			if res.Stopped == core.StopNumerics {
				t.Fatalf("transient fault escalated (failures=%d)", res.NumericFailures)
			}
			checkValid(t, p, res)
		})
	}
}

func TestFaultMRPersistentNaNEachStep(t *testing.T) {
	p := syntheticProblem(t, 60)
	for _, step := range mrSteps {
		step := step
		t.Run(step, func(t *testing.T) {
			plan := faults.NewPlan(19).WithNaN(faults.NaNInjection{
				Step: step, Iter: 2, Count: 1, Once: false,
			})
			res, err := p.MRAlignCtx(context.Background(), core.MROptions{
				Iterations: 8, Faults: plan,
			})
			if err != nil {
				t.Fatalf("numerics stop is not an error: %v", err)
			}
			if res.Stopped != core.StopNumerics {
				t.Fatalf("stopped = %v (failures=%d), want numerics", res.Stopped, res.NumericFailures)
			}
			checkValid(t, p, res)
		})
	}
}

func TestFaultGuardDisabled(t *testing.T) {
	// GuardLimit < 0 disables the guard: the injected NaN flows into
	// the iterates, but the tracker still refuses non-finite
	// objectives, so the final result remains valid — the last line of
	// defense the guard normally keeps from being reached.
	p := syntheticProblem(t, 40)
	plan := faults.NewPlan(23).WithNaN(faults.NaNInjection{
		Step: core.BPStepDamping, Iter: 2, Count: 4, Once: true,
	})
	res := p.BPAlign(core.BPOptions{Iterations: 6, Faults: plan, GuardLimit: -1})
	if res.NumericFailures != 0 {
		t.Fatal("disabled guard recorded failures")
	}
	checkValid(t, p, res)
}

func TestFaultCheckpointFuncFailureStopsRun(t *testing.T) {
	p := syntheticProblem(t, 40)
	boom := bytes.ErrTooLarge // any sentinel error
	res, err := p.BPAlignCtx(context.Background(), core.BPOptions{
		Iterations:      10,
		CheckpointEvery: 3,
		CheckpointFunc:  func(c *core.Checkpoint) error { return boom },
	})
	if err != boom || res.Err != boom {
		t.Fatalf("checkpoint failure not surfaced: %v / %v", err, res.Err)
	}
	if res.Iterations >= 10 {
		t.Fatal("run continued past the failing checkpoint")
	}
	checkValid(t, p, res)
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[core.StopReason]string{
		core.StopMaxIter:   "max-iterations",
		core.StopConverged: "converged",
		core.StopCancelled: "cancelled",
		core.StopDeadline:  "deadline",
		core.StopNumerics:  "numerics",
	} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q", r, r.String())
		}
	}
}

func TestBPAlignCtxNilContext(t *testing.T) {
	p := syntheticProblem(t, 30)
	res, err := p.BPAlignCtx(nil, core.BPOptions{Iterations: 3}) //nolint:staticcheck
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != core.StopMaxIter {
		t.Fatalf("stopped = %v", res.Stopped)
	}
	checkValid(t, p, res)
}
