package core_test

import (
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/stats"
)

// smallSynthetic builds a modest planted problem that both methods can
// solve well: 60-node power-law base, d̄ = 3 noise candidates.
func smallSynthetic(t testing.TB, seed int64) *core.Problem {
	t.Helper()
	o := gen.DefaultSynthetic(3, seed)
	o.N = 60
	o.MaxDeg = 12
	p, err := gen.Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKlauAlignRecoversPlantedAlignment(t *testing.T) {
	p := smallSynthetic(t, 7)
	res := p.KlauAlign(core.MROptions{Iterations: 40, Threads: 2})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	idObj := p.Objective(p.IdentityIndicator(), 1)
	if res.Objective < 0.85*idObj {
		t.Fatalf("MR objective %g < 85%% of identity objective %g", res.Objective, idObj)
	}
	if frac := core.CorrectMatchFraction(res.Matching); frac < 0.7 {
		t.Fatalf("MR recovered only %.0f%% of planted matches", frac*100)
	}
	if res.Iterations != 40 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
	if res.Evaluations != 40 {
		t.Fatalf("Evaluations = %d, want one per iteration", res.Evaluations)
	}
}

func TestBPAlignRecoversPlantedAlignment(t *testing.T) {
	p := smallSynthetic(t, 7)
	res := p.BPAlign(core.BPOptions{Iterations: 40, Threads: 2})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	idObj := p.Objective(p.IdentityIndicator(), 1)
	if res.Objective < 0.85*idObj {
		t.Fatalf("BP objective %g < 85%% of identity objective %g", res.Objective, idObj)
	}
	if frac := core.CorrectMatchFraction(res.Matching); frac < 0.7 {
		t.Fatalf("BP recovered only %.0f%% of planted matches", frac*100)
	}
	// BP rounds both y and z each iteration.
	if res.Evaluations != 80 {
		t.Fatalf("Evaluations = %d, want 80", res.Evaluations)
	}
}

func TestBPApproxMatchesExactQuality(t *testing.T) {
	// The paper's central claim (Fig 2): BP with approximate rounding
	// is nearly indistinguishable from BP with exact rounding, because
	// the iterates do not depend on the matcher.
	p := smallSynthetic(t, 11)
	exact := p.BPAlign(core.BPOptions{Iterations: 30})
	approx := p.BPAlign(core.BPOptions{Iterations: 30, Matcher: matching.MatcherSpec{Name: "approx"}})
	if approx.Objective < 0.9*exact.Objective {
		t.Fatalf("BP approx objective %g far below exact %g", approx.Objective, exact.Objective)
	}
}

func TestBPIteratesIndependentOfMatcher(t *testing.T) {
	// Stronger: the traced objective sequence may differ, but the final
	// exact-rounded objective derives from iterates that are identical;
	// verify by tracing both and comparing the best heuristic's exact
	// rounding (they used the same iterate stream).
	p := smallSynthetic(t, 13)
	a := p.BPAlign(core.BPOptions{Iterations: 25, Trace: true})
	b := p.BPAlign(core.BPOptions{Iterations: 25, Matcher: matching.MatcherSpec{Name: "approx"}, Trace: true})
	if len(a.ObjectiveTrace) != len(b.ObjectiveTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.ObjectiveTrace), len(b.ObjectiveTrace))
	}
	// Each approx evaluation is at most the exact one (same heuristic
	// vector, half-approx matcher) up to overlap effects; check the
	// final objectives are close.
	if math.Abs(a.Objective-b.Objective) > 0.25*math.Abs(a.Objective)+1e-9 {
		t.Fatalf("exact %g vs approx %g diverge beyond tolerance", a.Objective, b.Objective)
	}
}

func TestBPBatchEquivalence(t *testing.T) {
	// Batched rounding changes scheduling, not results: the tracked
	// best objective must be identical for batch sizes 1, 10, 20 with
	// a deterministic matcher.
	p := smallSynthetic(t, 17)
	base := p.BPAlign(core.BPOptions{Iterations: 20, Batch: 1})
	for _, batch := range []int{2, 10, 20} {
		r := p.BPAlign(core.BPOptions{Iterations: 20, Batch: batch})
		if math.Abs(r.Objective-base.Objective) > 1e-9 {
			t.Fatalf("batch=%d objective %g != batch=1 objective %g", batch, r.Objective, base.Objective)
		}
		if r.Evaluations != base.Evaluations {
			t.Fatalf("batch=%d evaluations %d != %d", batch, r.Evaluations, base.Evaluations)
		}
	}
}

func TestKlauApproxDegradesOrMatches(t *testing.T) {
	// Fig 2's other half: MR is sensitive to approximate rounding; at
	// minimum the approx variant must stay a valid matching and not
	// beat exact by more than numerical noise on average. We assert
	// validity and that exact MR is at least as good on this instance.
	p := smallSynthetic(t, 23)
	exact := p.KlauAlign(core.MROptions{Iterations: 30})
	approx := p.KlauAlign(core.MROptions{Iterations: 30, Matcher: matching.MatcherSpec{Name: "approx"}})
	if err := approx.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	if approx.Objective > exact.Objective*1.05+1e-9 {
		t.Fatalf("approx MR %g implausibly beats exact MR %g", approx.Objective, exact.Objective)
	}
}

func TestMRUpperBoundsAboveLower(t *testing.T) {
	p := smallSynthetic(t, 29)
	res := p.KlauAlign(core.MROptions{Iterations: 20, Trace: true})
	if len(res.Upper) != 20 || len(res.Lower) != 20 {
		t.Fatalf("trace lengths %d/%d", len(res.Upper), len(res.Lower))
	}
	for i := range res.Upper {
		if res.Upper[i] < res.Lower[i]-1e-6 {
			t.Fatalf("iteration %d: upper bound %g below lower bound %g", i, res.Upper[i], res.Lower[i])
		}
	}
}

func TestMRUpperBoundAboveOptimum(t *testing.T) {
	// The Lagrangian upper bound must dominate every feasible
	// objective, in particular the identity alignment's.
	p := smallSynthetic(t, 31)
	res := p.KlauAlign(core.MROptions{Iterations: 15, Trace: true})
	idObj := p.Objective(p.IdentityIndicator(), 1)
	minUpper := math.Inf(1)
	for _, u := range res.Upper {
		if u < minUpper {
			minUpper = u
		}
	}
	if minUpper < idObj-1e-6 {
		t.Fatalf("MR upper bound %g below feasible objective %g", minUpper, idObj)
	}
}

func TestStepTimersRecordAllSteps(t *testing.T) {
	p := smallSynthetic(t, 37)
	mrTimer := stats.NewStepTimer()
	p.KlauAlign(core.MROptions{Iterations: 5, Timer: mrTimer})
	for _, step := range []string{core.MRStepRowMatch, core.MRStepDaxpy, core.MRStepMatch, core.MRStepObjective, core.MRStepUpdateU} {
		if mrTimer.Count(step) != 5 {
			t.Fatalf("MR step %q recorded %d times, want 5", step, mrTimer.Count(step))
		}
	}
	bpTimer := stats.NewStepTimer()
	p.BPAlign(core.BPOptions{Iterations: 5, Batch: 4, Timer: bpTimer})
	for _, step := range []string{core.BPStepBoundF, core.BPStepComputeD, core.BPStepOthermax, core.BPStepUpdateS, core.BPStepDamping} {
		if bpTimer.Count(step) != 5 {
			t.Fatalf("BP step %q recorded %d times, want 5", step, bpTimer.Count(step))
		}
	}
	if bpTimer.Count(core.BPStepMatch) == 0 {
		t.Fatal("BP matching step never recorded")
	}
}

func TestBPDampingConvergesIterates(t *testing.T) {
	// With γ close to 0 the damping freezes the iterates immediately;
	// the run must still produce a valid matching.
	p := smallSynthetic(t, 41)
	res := p.BPAlign(core.BPOptions{Iterations: 10, Gamma: 0.01})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
}

func TestAlignResultFieldsConsistent(t *testing.T) {
	p := smallSynthetic(t, 43)
	res := p.BPAlign(core.BPOptions{Iterations: 10})
	wantObj := p.Alpha*res.MatchWeight + p.Beta*res.Overlap
	if math.Abs(res.Objective-wantObj) > 1e-9 {
		t.Fatalf("objective %g != α·weight + β·overlap = %g", res.Objective, wantObj)
	}
	if res.Overlap < 0 || res.MatchWeight < 0 {
		t.Fatal("negative components")
	}
}

func TestThreadCountInvariance(t *testing.T) {
	// With the deterministic exact matcher, results must not depend on
	// the thread count for either method.
	p := smallSynthetic(t, 47)
	mr1 := p.KlauAlign(core.MROptions{Iterations: 12, Threads: 1})
	mr4 := p.KlauAlign(core.MROptions{Iterations: 12, Threads: 4, Chunk: 8})
	if math.Abs(mr1.Objective-mr4.Objective) > 1e-9 {
		t.Fatalf("MR thread variance: %g vs %g", mr1.Objective, mr4.Objective)
	}
	bp1 := p.BPAlign(core.BPOptions{Iterations: 12, Threads: 1})
	bp4 := p.BPAlign(core.BPOptions{Iterations: 12, Threads: 4, Chunk: 8, Batch: 4})
	if math.Abs(bp1.Objective-bp4.Objective) > 1e-9 {
		t.Fatalf("BP thread variance: %g vs %g", bp1.Objective, bp4.Objective)
	}
}

func TestSkipFinalExact(t *testing.T) {
	p := smallSynthetic(t, 53)
	r := p.BPAlign(core.BPOptions{Iterations: 8, SkipFinalExact: true})
	if err := r.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKlauIteration(b *testing.B) {
	o := gen.DefaultSynthetic(5, 3)
	o.N = 200
	p, err := gen.Synthetic(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.KlauAlign(core.MROptions{Iterations: 1, SkipFinalExact: true})
	}
}

func BenchmarkBPIteration(b *testing.B) {
	o := gen.DefaultSynthetic(5, 3)
	o.N = 200
	p, err := gen.Synthetic(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BPAlign(core.BPOptions{Iterations: 1, SkipFinalExact: true})
	}
}
