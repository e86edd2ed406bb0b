// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections VI–VIII) on the synthetic problems and
// real-data stand-ins from internal/gen. Each driver returns
// structured results plus a formatted text report; the cmd/experiments
// binary and the root benchmark suite are thin wrappers around these
// drivers. See DESIGN.md §3 for the experiment index.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/stats"
)

// paperMatcher is the rounding matcher the paper evaluates: the
// locally-dominant algorithm with one-sided initialization. The
// "approx" spec returns the same matchings through Suitor, faster; the
// figures name the paper's matcher so their timings measure it.
var paperMatcher = matching.MatcherSpec{Name: "locally-dominant", OneSided: true}

// Config holds the knobs shared by all experiment drivers.
type Config struct {
	// Scale in (0,1] shrinks the Table II stand-in problems; 1 is the
	// published size. Laptop-quick runs use 0.01–0.05.
	Scale float64
	// Seed drives every generator.
	Seed int64
	// Iterations per alignment run (the paper uses 400 for scaling,
	// 1000 for quality; quick runs use fewer).
	Iterations int
	// Threads is the list of worker counts for scaling studies; if
	// empty, powers of two up to GOMAXPROCS are used.
	Threads []int
	// Repeats averages quality experiments over this many seeds
	// (default 1; the paper's Figure 2 plots single noisy runs, so
	// multi-seed averaging is a reproduction improvement).
	Repeats int
	// IncludeBaselines adds the round-weights and IsoRank baseline
	// curves to the quality experiments (beyond the paper's figures).
	IncludeBaselines bool
	// BuildThreads bounds parallelism of problem construction.
	BuildThreads int
}

// DefaultConfig returns a laptop-quick configuration.
func DefaultConfig() Config {
	return Config{Scale: 0.02, Seed: 42, Iterations: 20}
}

func (c Config) threadList() []int {
	if len(c.Threads) > 0 {
		return c.Threads
	}
	maxT := runtime.GOMAXPROCS(0)
	var ts []int
	for t := 1; t <= maxT; t *= 2 {
		ts = append(ts, t)
	}
	if ts[len(ts)-1] != maxT {
		ts = append(ts, maxT)
	}
	return ts
}

// ---------------------------------------------------------------------------
// Table II: problem statistics.
// ---------------------------------------------------------------------------

// Table2Result lists the stand-in problem statistics next to the
// paper's published values.
type Table2Result struct {
	Stats  []core.Stats
	Paper  []core.Stats
	Report string
}

// paperTable2 holds the published Table II rows.
func paperTable2() []core.Stats {
	return []core.Stats{
		{Name: "dmela-scere", VA: 9459, VB: 5696, EL: 34582, NnzS: 6860},
		{Name: "homo-musm", VA: 3247, VB: 9695, EL: 15810, NnzS: 12180},
		{Name: "lcsh-wiki", VA: 297266, VB: 205948, EL: 4971629, NnzS: 1785310},
		{Name: "lcsh-rameau", VA: 154974, VB: 342684, EL: 20883500, NnzS: 4929272},
	}
}

// Table2 generates all four stand-ins at the configured scale and
// reports their Table II statistics.
func Table2(c Config) (*Table2Result, error) {
	builders := []struct {
		name  string
		build func(float64, int64, int) (*core.Problem, error)
	}{
		{"dmela-scere", gen.DmelaScere},
		{"homo-musm", gen.HomoMusm},
		{"lcsh-wiki", gen.LcshWiki},
		{"lcsh-rameau", gen.LcshRameau},
	}
	res := &Table2Result{Paper: paperTable2()}
	tbl := stats.NewTable("problem", "|V_A|", "|V_B|", "|E_L|", "nnz(S)", "S imbalance", "paper |V_A|", "paper |V_B|", "paper |E_L|", "paper nnz(S)")
	for i, b := range builders {
		p, err := b.build(c.Scale, c.Seed, c.BuildThreads)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", b.name, err)
		}
		st := core.ProblemStats(b.name, p)
		res.Stats = append(res.Stats, st)
		pp := res.Paper[i]
		tbl.AddRow(st.Name,
			fmt.Sprint(st.VA), fmt.Sprint(st.VB), fmt.Sprint(st.EL), fmt.Sprint(st.NnzS),
			fmt.Sprintf("%.1fx", st.Imbalance),
			fmt.Sprint(pp.VA), fmt.Sprint(pp.VB), fmt.Sprint(pp.EL), fmt.Sprint(pp.NnzS))
	}
	res.Report = fmt.Sprintf("Table II stand-ins at scale %g (paper columns = published sizes)\n%s", c.Scale, tbl)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 2: synthetic quality, exact vs approximate rounding.
// ---------------------------------------------------------------------------

// Fig2Point is one measurement of one method at one expected degree,
// averaged over Config.Repeats seeds.
type Fig2Point struct {
	Method        string
	Degree        float64
	ObjFraction   float64 // objective / identity objective (mean)
	CorrectMatch  float64 // fraction of planted matches recovered (mean)
	ObjStd        float64 // stddev across seeds
	FinalMatching int     // cardinality of the last run, for diagnostics
}

// Fig2Result holds the four curves of Figure 2.
type Fig2Result struct {
	Points []Fig2Point
	Report string
}

// Fig2Methods enumerates the four curves of the paper's Figure 2: MR
// and BP, each with exact and approximate rounding.
var Fig2Methods = []string{"MR-exact", "MR-approx", "BP-exact", "BP-approx"}

// Fig2Baselines are the extra curves added beyond the paper: the
// round-input-weights heuristic and IsoRank-style propagation.
var Fig2Baselines = []string{"round-w", "isorank"}

// Fig2 sweeps the expected degree d̄ of random candidate edges and
// measures, for each method, the fraction of the identity objective
// achieved and the fraction of correct (planted) matches — the two
// panels of Figure 2, plus the baseline curves when
// c.IncludeBaselines is set. N defaults to the paper's 400-vertex
// graphs at Scale 1 and shrinks with Scale.
func Fig2(c Config, degrees []float64) (*Fig2Result, error) {
	if len(degrees) == 0 {
		degrees = []float64{2, 6, 10, 14, 18, 20}
	}
	n := int(400 * c.Scale * 50) // Scale 0.02 -> 400, the paper's size
	if n < 20 {
		n = 20
	}
	if n > 400 {
		n = 400
	}
	repeats := c.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	allMethods := Fig2Methods
	if c.IncludeBaselines {
		allMethods = append(append([]string(nil), Fig2Methods...), Fig2Baselines...)
	}
	res := &Fig2Result{}
	for _, deg := range degrees {
		objFracs := map[string][]float64{}
		corrFracs := map[string][]float64{}
		lastCard := map[string]int{}
		for rep := 0; rep < repeats; rep++ {
			o := gen.DefaultSynthetic(deg, c.Seed+int64(rep))
			o.N = n
			o.Threads = c.BuildThreads
			p, err := gen.Synthetic(o)
			if err != nil {
				return nil, err
			}
			idObj := p.Objective(p.IdentityIndicator(), c.BuildThreads)
			if idObj <= 0 {
				idObj = 1
			}
			for _, method := range allMethods {
				var r *core.AlignResult
				switch method {
				case "MR-exact":
					r = p.KlauAlign(core.MROptions{Iterations: c.Iterations})
				case "MR-approx":
					r = p.KlauAlign(core.MROptions{Iterations: c.Iterations, Matcher: paperMatcher})
				case "BP-exact":
					r = p.BPAlign(core.BPOptions{Iterations: c.Iterations})
				case "BP-approx":
					r = p.BPAlign(core.BPOptions{Iterations: c.Iterations, Matcher: paperMatcher})
				case "round-w":
					r = p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineRoundWeights})
				case "isorank":
					r = p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineIsoRank, Iterations: c.Iterations})
				}
				objFracs[method] = append(objFracs[method], r.Objective/idObj)
				corrFracs[method] = append(corrFracs[method], core.CorrectMatchFraction(r.Matching))
				lastCard[method] = r.Matching.Card
			}
		}
		for _, m := range allMethods {
			objS := stats.Summarize(objFracs[m])
			corrS := stats.Summarize(corrFracs[m])
			res.Points = append(res.Points, Fig2Point{
				Method:        m,
				Degree:        deg,
				ObjFraction:   objS.Mean,
				ObjStd:        objS.Std,
				CorrectMatch:  corrS.Mean,
				FinalMatching: lastCard[m],
			})
		}
	}
	// Format the two panels as series tables.
	objSeries := map[string]*stats.Series{}
	corrSeries := map[string]*stats.Series{}
	var objList, corrList []*stats.Series
	for _, m := range allMethods {
		objSeries[m] = &stats.Series{Name: m}
		corrSeries[m] = &stats.Series{Name: m}
		objList = append(objList, objSeries[m])
		corrList = append(corrList, corrSeries[m])
	}
	for _, pt := range res.Points {
		objSeries[pt.Method].Add(pt.Degree, pt.ObjFraction)
		corrSeries[pt.Method].Add(pt.Degree, pt.CorrectMatch)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (n=%d, alpha=1, beta=2, %d iterations, %d seed(s))\n", n, c.Iterations, repeats)
	b.WriteString("\nPanel 1: fraction of identity objective vs expected degree\n")
	b.WriteString(stats.FormatSeriesTable("dbar", objList...))
	b.WriteString("\nPanel 2: fraction of correct matches vs expected degree\n")
	b.WriteString(stats.FormatSeriesTable("dbar", corrList...))
	res.Report = b.String()
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 3: weight/overlap frontier over a parameter sweep.
// ---------------------------------------------------------------------------

// Fig3Point is one (matching weight, overlap) solution.
type Fig3Point struct {
	Method  string
	Alpha   float64
	Beta    float64
	Gamma   float64
	Weight  float64
	Overlap float64
}

// Fig3Result holds the scatter points for one problem.
type Fig3Result struct {
	Problem string
	Points  []Fig3Point
	Report  string
}

// Fig3 reproduces the Figure 3 sweep on one named stand-in problem
// ("dmela-scere" for the top panel, "lcsh-wiki" for the bottom): for a
// grid of objective weights and damping/step parameters, record the
// matching weight and overlap of each method's solution, with exact
// and approximate rounding.
func Fig3(c Config, problem string) (*Fig3Result, error) {
	p, err := buildNamed(problem, c)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Problem: problem}
	alphaBetas := []struct{ a, b float64 }{{1, 1}, {1, 2}, {2, 1}, {0, 1}}
	gammas := []float64{0.9, 0.99}
	for _, ab := range alphaBetas {
		// Rebuild objective weights without rebuilding S.
		p.Alpha, p.Beta = ab.a, ab.b
		for _, g := range gammas {
			for _, name := range []string{"exact", "approx"} {
				spec := matching.MatcherSpec{}
				if name == "approx" {
					spec = paperMatcher
				}
				mr := p.KlauAlign(core.MROptions{Iterations: c.Iterations, Gamma: 0.5, Matcher: spec})
				res.Points = append(res.Points, Fig3Point{
					Method: "MR-" + name, Alpha: ab.a, Beta: ab.b, Gamma: g,
					Weight: mr.MatchWeight, Overlap: mr.Overlap,
				})
				bp := p.BPAlign(core.BPOptions{Iterations: c.Iterations, Gamma: g, Matcher: spec})
				res.Points = append(res.Points, Fig3Point{
					Method: "BP-" + name, Alpha: ab.a, Beta: ab.b, Gamma: g,
					Weight: bp.MatchWeight, Overlap: bp.Overlap,
				})
			}
		}
	}
	tbl := stats.NewTable("method", "alpha", "beta", "gamma", "weight", "overlap")
	for _, pt := range res.Points {
		tbl.AddRow(pt.Method, fmt.Sprint(pt.Alpha), fmt.Sprint(pt.Beta), fmt.Sprint(pt.Gamma),
			fmt.Sprintf("%.2f", pt.Weight), fmt.Sprintf("%.1f", pt.Overlap))
	}
	res.Report = fmt.Sprintf("Figure 3 sweep on %s (scale %g, %d iterations)\n%s", problem, c.Scale, c.Iterations, tbl)
	return res, nil
}

// buildNamed constructs a named stand-in problem.
func buildNamed(name string, c Config) (*core.Problem, error) {
	switch name {
	case "dmela-scere":
		return gen.DmelaScere(c.Scale, c.Seed, c.BuildThreads)
	case "homo-musm":
		return gen.HomoMusm(c.Scale, c.Seed, c.BuildThreads)
	case "lcsh-wiki":
		return gen.LcshWiki(c.Scale, c.Seed, c.BuildThreads)
	case "lcsh-rameau":
		return gen.LcshRameau(c.Scale, c.Seed, c.BuildThreads)
	default:
		return nil, fmt.Errorf("experiments: unknown problem %q", name)
	}
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: strong scaling.
// ---------------------------------------------------------------------------

// ScalingMethod identifies a method/batch configuration in the
// scaling studies.
type ScalingMethod struct {
	Name  string
	Run   func(p *core.Problem, threads, iterations int) time.Duration
	Batch int
}

// scalingMethods returns the paper's Figure 4 configurations: Klau's
// MR and BP with batch sizes 1, 10, 20, all with approximate rounding
// (the point of the paper) and without the final exact matching step
// ("we do not include the time required for the final exact bipartite
// matching step in these experiments").
func scalingMethods() []ScalingMethod {
	run := func(batch int) func(*core.Problem, int, int) time.Duration {
		return func(p *core.Problem, threads, iterations int) time.Duration {
			start := time.Now()
			p.BPAlign(core.BPOptions{
				Iterations: iterations, Threads: threads, Batch: batch,
				Gamma: 0.99, Matcher: paperMatcher, SkipFinalExact: true,
			})
			return time.Since(start)
		}
	}
	return []ScalingMethod{
		{Name: "MR", Run: func(p *core.Problem, threads, iterations int) time.Duration {
			start := time.Now()
			p.KlauAlign(core.MROptions{
				Iterations: iterations, Threads: threads, MStep: 10,
				Matcher: paperMatcher, SkipFinalExact: true,
			})
			return time.Since(start)
		}},
		{Name: "BP-batch1", Run: run(1), Batch: 1},
		{Name: "BP-batch10", Run: run(10), Batch: 10},
		{Name: "BP-batch20", Run: run(20), Batch: 20},
	}
}

// ScalingPoint is one timing measurement. Efficiency is
// Speedup/Threads (1.0 = perfect strong scaling).
type ScalingPoint struct {
	Method     string
	Threads    int
	Elapsed    time.Duration
	Speedup    float64
	Efficiency float64
}

// ScalingResult holds a strong-scaling study.
type ScalingResult struct {
	Problem string
	Points  []ScalingPoint
	Report  string
}

// Scaling runs the strong-scaling study of Figures 4 (lcsh-wiki) and 5
// (lcsh-rameau): wall time of a fixed number of iterations as the
// thread count varies, for each method, with speedups relative to the
// single-thread run of that method (the paper normalizes the same
// way). methods filters by name; nil means all. The paper's second
// axis, bound versus interleaved NUMA memory, is not reproduced: Go
// cannot bind a goroutine's memory to a NUMA node.
func Scaling(c Config, problem string, methods []string) (*ScalingResult, error) {
	p, err := buildNamed(problem, c)
	if err != nil {
		return nil, err
	}
	wanted := func(name string) bool {
		if len(methods) == 0 {
			return true
		}
		for _, m := range methods {
			if m == name {
				return true
			}
		}
		return false
	}
	res := &ScalingResult{Problem: problem}
	for _, m := range scalingMethods() {
		if !wanted(m.Name) {
			continue
		}
		// Speedups are normalized to the fastest run at the smallest
		// measured thread count — the paper's "fastest run we computed
		// with one thread" when 1 is in the list.
		minThreads := c.threadList()[0]
		for _, t := range c.threadList() {
			if t < minThreads {
				minThreads = t
			}
		}
		best1 := time.Duration(0)
		for _, t := range c.threadList() {
			el := m.Run(p, t, c.Iterations)
			res.Points = append(res.Points, ScalingPoint{
				Method: m.Name, Threads: t, Elapsed: el,
			})
			if t == minThreads && (best1 == 0 || el < best1) {
				best1 = el
			}
		}
		if best1 > 0 {
			for i := range res.Points {
				if res.Points[i].Method == m.Name {
					res.Points[i].Speedup = float64(best1) / float64(res.Points[i].Elapsed)
					res.Points[i].Efficiency = res.Points[i].Speedup / float64(res.Points[i].Threads)
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Strong scaling on %s (scale %g, %d iterations, speedup vs best 1-thread run)\n", problem, c.Scale, c.Iterations)
	tbl := stats.NewTable("method", "threads", "time", "speedup", "efficiency")
	for _, pt := range res.Points {
		tbl.AddRow(pt.Method, fmt.Sprint(pt.Threads),
			pt.Elapsed.Round(time.Millisecond).String(), fmt.Sprintf("%.2f", pt.Speedup),
			fmt.Sprintf("%.2f", pt.Efficiency))
	}
	b.WriteString(tbl.String())
	res.Report = b.String()
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 6 and 7: per-step strong scaling.
// ---------------------------------------------------------------------------

// StepScalingPoint is the accumulated time of one step at one thread
// count.
type StepScalingPoint struct {
	Step     string
	Threads  int
	Elapsed  time.Duration
	Fraction float64
}

// StepScalingResult holds a per-step scaling study.
type StepScalingResult struct {
	Problem string
	Method  string
	Points  []StepScalingPoint
	Report  string
}

// StepScaling reproduces Figures 6 (method "MR") and 7 (method
// "BP-batch20"): per-pseudocode-step wall time versus thread count on
// the lcsh-wiki stand-in, with each step's share of the total at the
// largest thread count.
func StepScaling(c Config, problem, method string) (*StepScalingResult, error) {
	p, err := buildNamed(problem, c)
	if err != nil {
		return nil, err
	}
	res := &StepScalingResult{Problem: problem, Method: method}
	var lastTimer *stats.StepTimer
	for _, t := range c.threadList() {
		timer := stats.NewStepTimer()
		switch method {
		case "MR":
			p.KlauAlign(core.MROptions{
				Iterations: c.Iterations, Threads: t, MStep: 10,
				Matcher: paperMatcher, SkipFinalExact: true, Timer: timer,
			})
		case "BP-batch20":
			p.BPAlign(core.BPOptions{
				Iterations: c.Iterations, Threads: t, Batch: 20, Gamma: 0.99,
				Matcher: paperMatcher, SkipFinalExact: true, Timer: timer,
			})
		default:
			return nil, fmt.Errorf("experiments: unknown step-scaling method %q", method)
		}
		fr := timer.Fractions()
		for _, step := range timer.Steps() {
			res.Points = append(res.Points, StepScalingPoint{
				Step: step, Threads: t, Elapsed: timer.Total(step), Fraction: fr[step],
			})
		}
		lastTimer = timer
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Per-step scaling of %s on %s (scale %g, %d iterations)\n", method, problem, c.Scale, c.Iterations)
	tbl := stats.NewTable("step", "threads", "time", "fraction")
	for _, pt := range res.Points {
		tbl.AddRow(pt.Step, fmt.Sprint(pt.Threads), pt.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*pt.Fraction))
	}
	b.WriteString(tbl.String())
	if lastTimer != nil {
		fmt.Fprintf(&b, "\nStep shares at %d threads:\n%s", c.threadList()[len(c.threadList())-1], lastTimer)
	}
	res.Report = b.String()
	return res, nil
}
