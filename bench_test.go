package netalignmc_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark drives the corresponding experiment in
// internal/experiments at a laptop-quick scale and reports the
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's rows and series. EXPERIMENTS.md records a
// paper-vs-measured comparison produced by these harnesses; the
// cmd/experiments binary runs the same drivers at configurable scale
// for fuller output.
//
// Environment variables:
//
//	NETALIGN_BENCH_SCALE  stand-in scale (default 0.01)
//	NETALIGN_BENCH_ITERS  iterations per run (default 10)

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/experiments"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/stats"
)

func benchConfig() experiments.Config {
	c := experiments.Config{Scale: 0.01, Seed: 42, Iterations: 10}
	if v := os.Getenv("NETALIGN_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 && f <= 1 {
			c.Scale = f
		}
	}
	if v := os.Getenv("NETALIGN_BENCH_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			c.Iterations = n
		}
	}
	return c
}

// BenchmarkTable2ProblemStats regenerates Table II: the problem
// statistics of the four stand-in instances. Reported metrics are the
// |E_L| and nnz(S) of the lcsh-wiki stand-in.
func BenchmarkTable2ProblemStats(b *testing.B) {
	c := benchConfig()
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(c)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, st := range last.Stats {
		if st.Name == "lcsh-wiki" {
			b.ReportMetric(float64(st.EL), "EL")
			b.ReportMetric(float64(st.NnzS), "nnzS")
		}
	}
}

// BenchmarkFigure2Quality regenerates Figure 2: solution quality of
// MR/BP with exact/approximate rounding on synthetic power-law
// problems. Metrics: the objective fraction of BP-exact and BP-approx
// at the easiest noise level (they should be nearly equal — the
// paper's headline quality claim) and of MR-approx (which degrades).
func BenchmarkFigure2Quality(b *testing.B) {
	c := benchConfig()
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(c, []float64{2, 10})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, pt := range last.Points {
		if pt.Degree != 2 {
			continue
		}
		switch pt.Method {
		case "BP-exact":
			b.ReportMetric(pt.ObjFraction, "BPexact_objfrac")
		case "BP-approx":
			b.ReportMetric(pt.ObjFraction, "BPapprox_objfrac")
		case "MR-approx":
			b.ReportMetric(pt.ObjFraction, "MRapprox_objfrac")
		}
	}
}

// BenchmarkFigure3Frontier regenerates Figure 3: the matching-weight /
// overlap frontier of both methods under a parameter sweep on the
// dmela-scere stand-in. Metric: the maximum overlap any BP-approx
// point reaches.
func BenchmarkFigure3Frontier(b *testing.B) {
	c := benchConfig()
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(c, "dmela-scere")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxOv := 0.0
	for _, pt := range last.Points {
		if pt.Method == "BP-approx" && pt.Overlap > maxOv {
			maxOv = pt.Overlap
		}
	}
	b.ReportMetric(maxOv, "BPapprox_max_overlap")
}

// BenchmarkFigure4Scaling regenerates Figure 4: strong scaling of MR
// and BP(batch=1,10,20) on the lcsh-wiki stand-in across thread
// counts. Metric: BP-batch20 speedup at GOMAXPROCS.
func BenchmarkFigure4Scaling(b *testing.B) {
	c := benchConfig()
	c.Iterations = 4
	var last *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scaling(c, "lcsh-wiki", nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxT := runtime.GOMAXPROCS(0)
	for _, pt := range last.Points {
		if pt.Method == "BP-batch20" && pt.Threads == maxT {
			b.ReportMetric(pt.Speedup, "BPbatch20_speedup")
		}
		if pt.Method == "MR" && pt.Threads == maxT {
			b.ReportMetric(pt.Speedup, "MR_speedup")
		}
	}
}

// BenchmarkFigure5Scaling regenerates Figure 5: strong scaling of MR
// and BP(batch=20) on the larger lcsh-rameau stand-in.
func BenchmarkFigure5Scaling(b *testing.B) {
	c := benchConfig()
	c.Iterations = 3
	var last *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scaling(c, "lcsh-rameau", []string{"MR", "BP-batch20"})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxT := runtime.GOMAXPROCS(0)
	for _, pt := range last.Points {
		if pt.Method == "BP-batch20" && pt.Threads == maxT {
			b.ReportMetric(pt.Speedup, "BPbatch20_speedup")
		}
	}
}

// BenchmarkFigure6MRSteps regenerates Figure 6: per-step strong
// scaling of Klau's method on lcsh-wiki. Metrics: the fraction of
// runtime in the row-match and matching steps at GOMAXPROCS (the paper
// reports 40% / 40% at 40 threads).
func BenchmarkFigure6MRSteps(b *testing.B) {
	c := benchConfig()
	c.Iterations = 4
	var last *experiments.StepScalingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.StepScaling(c, "lcsh-wiki", "MR")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxT := runtime.GOMAXPROCS(0)
	for _, pt := range last.Points {
		if pt.Threads != maxT {
			continue
		}
		switch pt.Step {
		case core.MRStepRowMatch:
			b.ReportMetric(pt.Fraction, "rowmatch_frac")
		case core.MRStepMatch:
			b.ReportMetric(pt.Fraction, "match_frac")
		}
	}
}

// BenchmarkFigure7BPSteps regenerates Figure 7: per-step strong
// scaling of BP(batch=20) on lcsh-wiki. Metrics: the othermax,
// matching and damping fractions at GOMAXPROCS (paper: 15% / 58% /
// 12% at 40 threads).
func BenchmarkFigure7BPSteps(b *testing.B) {
	c := benchConfig()
	c.Iterations = 4
	var last *experiments.StepScalingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.StepScaling(c, "lcsh-wiki", "BP-batch20")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	maxT := runtime.GOMAXPROCS(0)
	for _, pt := range last.Points {
		if pt.Threads != maxT {
			continue
		}
		switch pt.Step {
		case core.BPStepOthermax:
			b.ReportMetric(pt.Fraction, "othermax_frac")
		case core.BPStepMatch:
			b.ReportMetric(pt.Fraction, "match_frac")
		case core.BPStepDamping:
			b.ReportMetric(pt.Fraction, "damping_frac")
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

func ablationProblem(b *testing.B) *core.Problem {
	b.Helper()
	p, err := gen.LcshWiki(benchConfig().Scale, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationBatchSize sweeps the BP rounding batch size.
func BenchmarkAblationBatchSize(b *testing.B) {
	p := ablationProblem(b)
	for _, batch := range []int{1, 4, 10, 20} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.BPAlign(core.BPOptions{
					Iterations: 5, Batch: batch, Matcher: matching.MatcherSpec{Name: "approx"},
					SkipFinalExact: true,
				})
			}
		})
	}
}

// BenchmarkAblationMatcherInit compares the two-sided initialization
// of the locally-dominant matcher against the bipartite one-sided
// variant the paper found faster.
func BenchmarkAblationMatcherInit(b *testing.B) {
	p := ablationProblem(b)
	for _, oneSided := range []bool{false, true} {
		name := "two-sided"
		if oneSided {
			name = "one-sided"
		}
		m := matching.NewLocallyDominantMatcher(matching.LocallyDominantOptions{OneSidedInit: oneSided})
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m(p.L, 0)
			}
		})
	}
}

// BenchmarkAblationSortedAdjacency measures the §V sorted-neighbor-
// list acceleration of FINDMATE.
func BenchmarkAblationSortedAdjacency(b *testing.B) {
	p := ablationProblem(b)
	for _, sorted := range []bool{false, true} {
		name := "scan"
		if sorted {
			name = "sorted"
		}
		m := matching.NewLocallyDominantMatcher(matching.LocallyDominantOptions{SortedAdjacency: sorted})
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m(p.L, 0)
			}
		})
	}
}

// BenchmarkComplexityPerNonzero verifies the §III-D complexity claim
// empirically: one BP iteration with approximate rounding costs
// O(nnz(S) + |E_L|), so nanoseconds per (nnz+E_L) unit should stay
// roughly flat as the problem grows.
func BenchmarkComplexityPerNonzero(b *testing.B) {
	for _, scale := range []float64{0.005, 0.01, 0.02} {
		p, err := gen.LcshWiki(scale, 42, 0)
		if err != nil {
			b.Fatal(err)
		}
		units := float64(p.NNZS() + p.L.NumEdges())
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.BPAlign(core.BPOptions{
					Iterations: 1, Matcher: matching.MatcherSpec{Name: "approx"}, SkipFinalExact: true,
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/units, "ns/unit")
		})
	}
}

// BenchmarkAblationRowMatch measures the paper's choice of exact
// per-row matchings in Klau's Step 1 against a greedy row matcher.
func BenchmarkAblationRowMatch(b *testing.B) {
	p := ablationProblem(b)
	for _, greedy := range []bool{false, true} {
		name := "exact-rows"
		if greedy {
			name = "greedy-rows"
		}
		b.Run(name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				r := p.KlauAlign(core.MROptions{
					Iterations: 5, GreedyRowMatch: greedy,
					Matcher: matching.MatcherSpec{Name: "approx"}, SkipFinalExact: true,
				})
				obj = r.Objective
			}
			b.ReportMetric(obj, "objective")
		})
	}
}

// --- Allocation gate ---

// Allocation limits per iteration of the warm Figure 2 solves: 1.2×
// a one-thread recording of this code (fig2-bp 0.725, fig2-mr 0.425
// allocs/iter, go1.24 linux/amd64; the same under -race and at
// GOMAXPROCS=8). Re-record and lower them when a change allocates
// less; never raise them to let a change through.
const (
	fig2BPAllocsPerIter = 0.87 // 1.2 × 0.725
	fig2MRAllocsPerIter = 0.51 // 1.2 × 0.425
)

// TestFig2AllocsPerIter keeps the Figure 2 solves' allocation count
// from growing: a warm 40-iteration, 1-thread solve of the d̄=8
// synthetic problem with approximate rounding, no final exact step
// and a step timer attached, for BP (fig2-bp) and MR (fig2-mr), must
// stay within its limit above. One thread keeps the count
// deterministic.
func TestFig2AllocsPerIter(t *testing.T) {
	p, err := gen.Synthetic(gen.DefaultSynthetic(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	const iters = 40
	approx := matching.MatcherSpec{Name: "approx"}
	// Each configuration gets its own workspace and step timer, as a
	// separate measuring process would.
	for _, c := range []struct {
		config string
		limit  float64
		opts   core.Options
	}{
		{"fig2-bp", fig2BPAllocsPerIter, core.Options{Method: core.MethodBP, BP: core.BPOptions{
			Iterations: iters, Threads: 1, Matcher: approx, SkipFinalExact: true,
			Workspace: core.NewWorkspace(), Timer: stats.NewStepTimer(),
		}}},
		{"fig2-mr", fig2MRAllocsPerIter, core.Options{Method: core.MethodMR, MR: core.MROptions{
			Iterations: iters, Threads: 1, Matcher: approx, SkipFinalExact: true,
			Workspace: core.NewWorkspace(), Timer: stats.NewStepTimer(),
		}}},
	} {
		t.Run(c.config, func(t *testing.T) {
			// AllocsPerRun's own warm-up solve fills the workspace, the
			// matcher scratch and the timer's step table.
			perSolve := testing.AllocsPerRun(3, func() {
				if _, err := p.Align(context.Background(), c.opts); err != nil {
					t.Fatal(err)
				}
			})
			got := perSolve / iters
			t.Logf("%s: %.3f allocs/iter (limit %.3f)", c.config, got, c.limit)
			if got > c.limit {
				t.Errorf("%s allocates %.3f objects/iter, above its limit %.3f", c.config, got, c.limit)
			}
		})
	}
}
