package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// FullReport runs every experiment driver at the given configuration
// and writes one self-contained markdown report: the machine-generated
// counterpart of EXPERIMENTS.md. Scaling studies honor c.Threads;
// quality studies honor c.Repeats.
func FullReport(c Config, w io.Writer) error {
	fmt.Fprintf(w, "# netalignmc experiment report\n\n")
	fmt.Fprintf(w, "Configuration: scale %g, seed %d, %d iterations, GOMAXPROCS %d.\n\n",
		c.Scale, c.Seed, c.Iterations, runtime.GOMAXPROCS(0))
	start := time.Now()

	section := func(title, body string) {
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", title, body)
	}

	t2, err := Table2(c)
	if err != nil {
		return fmt.Errorf("table2: %w", err)
	}
	section("Table II — problem statistics", t2.Report)

	f2, err := Fig2(c, nil)
	if err != nil {
		return fmt.Errorf("fig2: %w", err)
	}
	section("Figure 2 — synthetic quality, exact vs approximate rounding", f2.Report)

	for _, problem := range []string{"dmela-scere", "lcsh-wiki"} {
		f3, err := Fig3(c, problem)
		if err != nil {
			return fmt.Errorf("fig3 %s: %w", problem, err)
		}
		section(fmt.Sprintf("Figure 3 — weight/overlap frontier (%s)", problem), f3.Report)
	}

	f4, err := Scaling(c, "lcsh-wiki", nil)
	if err != nil {
		return fmt.Errorf("fig4: %w", err)
	}
	section("Figure 4 — strong scaling, lcsh-wiki", f4.Report)

	f5, err := Scaling(c, "lcsh-rameau", []string{"MR", "BP-batch20"})
	if err != nil {
		return fmt.Errorf("fig5: %w", err)
	}
	section("Figure 5 — strong scaling, lcsh-rameau", f5.Report)

	f6, err := StepScaling(c, "lcsh-wiki", "MR")
	if err != nil {
		return fmt.Errorf("fig6: %w", err)
	}
	section("Figure 6 — per-step scaling, MR", f6.Report)

	f7, err := StepScaling(c, "lcsh-wiki", "BP-batch20")
	if err != nil {
		return fmt.Errorf("fig7: %w", err)
	}
	section("Figure 7 — per-step scaling, BP(batch=20)", f7.Report)

	mc, err := MatcherComparison(c, "lcsh-wiki")
	if err != nil {
		return fmt.Errorf("matchers: %w", err)
	}
	section("Matcher library comparison (extends §VII)", mc.Report)

	hl, err := Headline(c, "lcsh-wiki")
	if err != nil {
		return fmt.Errorf("headline: %w", err)
	}
	section("Headline — end-to-end fast vs slow configuration", hl.Report)

	cv, err := Convergence(c, "lcsh-wiki")
	if err != nil {
		return fmt.Errorf("convergence: %w", err)
	}
	section("Objective traces (§III-C non-monotonicity)", cv.Report)

	lpc, err := LPComparison(c, nil)
	if err != nil {
		return fmt.Errorf("lp: %w", err)
	}
	section("LP relaxation baseline (§III)", lpc.Report)

	fmt.Fprintf(w, "---\nGenerated in %v.\n", time.Since(start).Round(time.Millisecond))
	return nil
}
