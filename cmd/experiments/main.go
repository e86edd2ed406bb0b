// Command experiments regenerates the paper's tables and figures on
// the synthetic stand-ins at a configurable scale.
//
// Usage:
//
//	experiments -exp all -scale 0.02 -iters 20
//	experiments -exp fig4 -scale 0.05 -iters 50 -threads 1,2,4,8
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"netalignmc/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table2, fig2, fig3, fig4, fig5, fig6, fig7, matchers, headline, all")
		scale   = flag.Float64("scale", 0.02, "stand-in size scale in (0,1]; 1 = published sizes")
		iters   = flag.Int("iters", 20, "iterations per alignment run (paper: 400-1000)")
		seed    = flag.Int64("seed", 42, "random seed")
		threads = flag.String("threads", "", "comma-separated thread counts for scaling (default: powers of 2 up to GOMAXPROCS)")
		repeats = flag.Int("repeats", 1, "seeds to average quality experiments over")
		csvDir  = flag.String("csv", "", "also write <exp>.csv files into this directory")
		report  = flag.String("report", "", "write a full markdown report to this file (runs every experiment)")
		base    = flag.Bool("baselines", false, "include the round-weights and isorank baseline curves in quality experiments")
	)
	flag.Parse()

	c := experiments.Config{Scale: *scale, Seed: *seed, Iterations: *iters, Repeats: *repeats, IncludeBaselines: *base}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || t < 1 {
				fmt.Fprintf(os.Stderr, "experiments: bad thread count %q\n", part)
				os.Exit(2)
			}
			c.Threads = append(c.Threads, t)
		}
	}

	run := func(name string) {
		var report, csv string
		var err error
		switch name {
		case "table2":
			var r *experiments.Table2Result
			r, err = experiments.Table2(c)
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "fig2":
			var r *experiments.Fig2Result
			r, err = experiments.Fig2(c, nil)
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "fig3":
			var top, bottom *experiments.Fig3Result
			top, err = experiments.Fig3(c, "dmela-scere")
			if err == nil {
				bottom, err = experiments.Fig3(c, "lcsh-wiki")
			}
			if err == nil {
				report = top.Report + "\n" + bottom.Report
				csv = top.CSV() + bottom.CSV()
			}
		case "fig4":
			var r *experiments.ScalingResult
			r, err = experiments.Scaling(c, "lcsh-wiki", nil)
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "fig5":
			var r *experiments.ScalingResult
			r, err = experiments.Scaling(c, "lcsh-rameau", []string{"MR", "BP-batch20"})
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "fig6":
			var r *experiments.StepScalingResult
			r, err = experiments.StepScaling(c, "lcsh-wiki", "MR")
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "fig7":
			var r *experiments.StepScalingResult
			r, err = experiments.StepScaling(c, "lcsh-wiki", "BP-batch20")
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "matchers":
			var r *experiments.MatcherComparisonResult
			r, err = experiments.MatcherComparison(c, "lcsh-wiki")
			if err == nil {
				report, csv = r.Report, r.CSV()
			}
		case "headline":
			var r *experiments.HeadlineResult
			r, err = experiments.Headline(c, "lcsh-wiki")
			if err == nil {
				report = r.Report
			}
		case "convergence":
			var r *experiments.ConvergenceResult
			r, err = experiments.Convergence(c, "lcsh-wiki")
			if err == nil {
				report = r.Report
			}
		case "lp":
			var r *experiments.LPComparisonResult
			r, err = experiments.LPComparison(c, nil)
			if err == nil {
				report = r.Report
			}
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s ====\n%s\n", name, report)
		if *csvDir != "" && csv != "" {
			path := fmt.Sprintf("%s/%s.csv", *csvDir, name)
			if werr := os.WriteFile(path, []byte(csv), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, werr)
				os.Exit(1)
			}
		}
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		err = experiments.FullReport(c, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *report)
		return
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "matchers", "headline", "convergence", "lp"} {
			run(name)
		}
		return
	}
	run(*exp)
}
