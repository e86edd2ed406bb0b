package experiments

import (
	"fmt"
	"strings"

	"netalignmc/internal/core"
	"netalignmc/internal/stats"
)

// ConvergenceResult records the per-evaluation rounded objectives of
// both methods on one problem, plus non-monotonicity statistics. It
// substantiates Section III-C: "There is no monotonicity in the
// solution quality, which can vary greatly between iterations. Thus,
// no simple stopping criteria is possible."
type ConvergenceResult struct {
	Problem string
	MRTrace []float64
	BPTrace []float64
	// Decreases counts evaluations whose objective dropped below the
	// immediately preceding one.
	MRDecreases int
	BPDecreases int
	// BestAtFraction is the position of the best evaluation as a
	// fraction of the trace (a value well below 1 shows that the final
	// iterate is often not the best — the reason round_heuristic
	// tracks the best seen).
	MRBestAt float64
	BPBestAt float64
	Report   string
}

// Convergence traces the objective of every rounding evaluation for
// MR and BP on a stand-in problem.
func Convergence(c Config, problem string) (*ConvergenceResult, error) {
	p, err := buildNamed(problem, c)
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Problem: problem}
	mr := p.KlauAlign(core.MROptions{Iterations: c.Iterations, Trace: true, Matcher: paperMatcher})
	bp := p.BPAlign(core.BPOptions{Iterations: c.Iterations, Trace: true, Matcher: paperMatcher})
	res.MRTrace = mr.ObjectiveTrace
	res.BPTrace = bp.ObjectiveTrace
	res.MRDecreases, res.MRBestAt = traceStats(res.MRTrace)
	res.BPDecreases, res.BPBestAt = traceStats(res.BPTrace)

	var b strings.Builder
	fmt.Fprintf(&b, "Objective traces on %s (scale %g, %d iterations)\n", problem, c.Scale, c.Iterations)
	fmt.Fprintf(&b, "MR: %d evaluations, %d decreases, best at %.0f%% of the run\n",
		len(res.MRTrace), res.MRDecreases, 100*res.MRBestAt)
	fmt.Fprintf(&b, "BP: %d evaluations, %d decreases, best at %.0f%% of the run\n",
		len(res.BPTrace), res.BPDecreases, 100*res.BPBestAt)
	sMR := stats.Summarize(res.MRTrace)
	sBP := stats.Summarize(res.BPTrace)
	fmt.Fprintf(&b, "MR objective range [%.2f, %.2f] mean %.2f\n", sMR.Min, sMR.Max, sMR.Mean)
	fmt.Fprintf(&b, "BP objective range [%.2f, %.2f] mean %.2f\n", sBP.Min, sBP.Max, sBP.Mean)
	res.Report = b.String()
	return res, nil
}

func traceStats(trace []float64) (decreases int, bestAt float64) {
	if len(trace) == 0 {
		return 0, 0
	}
	best := 0
	for i := 1; i < len(trace); i++ {
		if trace[i] < trace[i-1]-1e-12 {
			decreases++
		}
		if trace[i] > trace[best] {
			best = i
		}
	}
	return decreases, float64(best+1) / float64(len(trace))
}
