package core_test

// Kernel-level benchmarks for the individual iteration steps; these
// are the units the paper's Figures 6-7 break runtime into, so having
// them benchmarkable in isolation supports performance work on any
// one step.

import (
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/stats"
)

func benchProblem(b *testing.B) *core.Problem {
	b.Helper()
	p, err := gen.LcshWiki(0.005, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkSConstruction(b *testing.B) {
	o := gen.DefaultSynthetic(8, 3)
	o.N = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Synthetic(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjectiveEvaluation(b *testing.B) {
	p := benchProblem(b)
	x := p.IdentityIndicator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Objective(x, 0)
	}
}

func BenchmarkRoundHeuristicApprox(b *testing.B) {
	p := benchProblem(b)
	tr := &core.Tracker{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RoundHeuristic(p.L.W, matching.Approx, 0, i, tr)
	}
}

func BenchmarkRoundHeuristicExact(b *testing.B) {
	p := benchProblem(b)
	tr := &core.Tracker{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RoundHeuristic(p.L.W, matching.Exact, 0, i, tr)
	}
}

// BenchmarkBPStepBreakdown runs one BP iteration and reports the time
// share of each step as metrics.
func BenchmarkBPStepBreakdown(b *testing.B) {
	p := benchProblem(b)
	b.ResetTimer()
	var timer *stats.StepTimer
	for i := 0; i < b.N; i++ {
		timer = stats.NewStepTimer()
		p.BPAlign(core.BPOptions{
			Iterations: 1, Batch: 2, Matcher: matching.MatcherSpec{Name: "approx"},
			SkipFinalExact: true, Timer: timer,
		})
	}
	for step, frac := range timer.Fractions() {
		b.ReportMetric(frac, step+"_frac")
	}
}

// BenchmarkMRStepBreakdown does the same for Klau's method.
func BenchmarkMRStepBreakdown(b *testing.B) {
	p := benchProblem(b)
	b.ResetTimer()
	var timer *stats.StepTimer
	for i := 0; i < b.N; i++ {
		timer = stats.NewStepTimer()
		p.KlauAlign(core.MROptions{
			Iterations: 1, Matcher: matching.MatcherSpec{Name: "approx"},
			SkipFinalExact: true, Timer: timer,
		})
	}
	for step, frac := range timer.Fractions() {
		b.ReportMetric(frac, step+"_frac")
	}
}
