package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/stats"
)

// HeadlineResult captures the paper's end-to-end claim ("we
// demonstrate almost a 20-fold speedup using 40 threads... and now
// solve real-world problems in 36 seconds instead of 10 minutes"):
// the wall time and objective of the slow configuration (BP, exact
// rounding, 1 thread) versus the fast one (BP batch=20, approximate
// rounding, all threads).
type HeadlineResult struct {
	Problem       string
	SlowTime      time.Duration
	FastTime      time.Duration
	Speedup       float64
	SlowObjective float64
	FastObjective float64
	QualityRatio  float64 // fast / slow objective — the "negligible difference" claim
	Threads       int
	Report        string
}

// Headline runs the end-to-end comparison on a stand-in problem.
func Headline(c Config, problem string) (*HeadlineResult, error) {
	p, err := buildNamed(problem, c)
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{Problem: problem, Threads: runtime.GOMAXPROCS(0)}

	start := time.Now()
	slow := p.BPAlign(core.BPOptions{
		Iterations: c.Iterations, Threads: 1, Batch: 1,
		Gamma: 0.99,
	})
	res.SlowTime = time.Since(start)
	res.SlowObjective = slow.Objective

	start = time.Now()
	fast := p.BPAlign(core.BPOptions{
		Iterations: c.Iterations, Threads: res.Threads, Batch: 20,
		Gamma: 0.99, Matcher: paperMatcher,
	})
	res.FastTime = time.Since(start)
	res.FastObjective = fast.Objective

	if res.FastTime > 0 {
		res.Speedup = float64(res.SlowTime) / float64(res.FastTime)
	}
	if res.SlowObjective != 0 {
		res.QualityRatio = res.FastObjective / res.SlowObjective
	}

	tbl := stats.NewTable("configuration", "time", "objective")
	tbl.AddRow("BP exact rounding, 1 thread", res.SlowTime.Round(time.Millisecond).String(), fmt.Sprintf("%.2f", res.SlowObjective))
	tbl.AddRow(fmt.Sprintf("BP(batch=20) approx, %d threads", res.Threads), res.FastTime.Round(time.Millisecond).String(), fmt.Sprintf("%.2f", res.FastObjective))
	res.Report = fmt.Sprintf(
		"Headline comparison on %s (scale %g, %d iterations)\n%s\nspeedup %.1fx, quality ratio %.4f (paper: ~17x end-to-end, quality 'negligible' change)\n",
		problem, c.Scale, c.Iterations, tbl, res.Speedup, res.QualityRatio)
	if math.IsNaN(res.QualityRatio) {
		res.QualityRatio = 0
	}
	return res, nil
}
