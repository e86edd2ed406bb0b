// Command benchalign measures the per-iteration cost of the alignment
// solvers on the paper's synthetic configurations and emits
// machine-readable JSON (the BENCH_*.json files committed at the repo
// root), so the performance trajectory of the hot path is recorded
// run over run instead of living in shell history.
//
// Each run solves one named configuration at one thread count and
// reports ns per iteration, allocations per iteration (from
// runtime.MemStats deltas), bytes per iteration, the per-step
// StepTimer breakdown, and the final objective (so perf entries double
// as a correctness cross-check).
//
// Usage:
//
//	benchalign -config fig2-bp -threads 1,8 -label pr3 -out BENCH_pr3.json
//	benchalign -config fig2-bp -scaling -label pr4 -out BENCH_pr4.json
//	benchalign -config fig2-bp -threads 1 -check BENCH_pr3.json \
//	    -baseline-label pr3 -max-alloc-ratio 1.2
//	benchalign -gate BENCH_pr4.json -gate-against BENCH_pr3.json \
//	    -gate-label pr4 -baseline-label pr3
//
// With -out, runs are appended to the existing document (if any), so a
// baseline recorded before an optimization and the post-optimization
// runs land in the same file. With -check, the measured allocations
// are compared against the named baseline entry and the process exits
// nonzero on a regression beyond the ratio. With -gate, no measurement
// happens at all: two committed documents are compared (1-thread
// ns/iter ratio plus a hardware-aware multi-thread speedup floor) and
// the process exits nonzero on a regression — the deterministic half
// of the CI bench-smoke gate.
//
// -scaling runs the configuration at 1,2,4,8 threads (unless -threads
// overrides the list) and prints a strong-scaling table: speedup and
// parallel efficiency per thread count, plus the per-step ns
// breakdown so the step that stops scaling is visible directly.
// -cpuprofile and -memprofile write pprof profiles covering the
// measured solves.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"netalignmc/internal/bench"
)

func main() {
	var (
		config     = flag.String("config", "fig2-bp", "named configuration: "+strings.Join(bench.ConfigNames(), ", "))
		threads    = flag.String("threads", "", "comma-separated thread counts (default 1, or 1,2,4,8 with -scaling)")
		iters      = flag.Int("iters", 40, "solver iterations per run")
		reps       = flag.Int("reps", 3, "repetitions (fastest rep reported)")
		seed       = flag.Int64("seed", 1, "problem seed")
		label      = flag.String("label", "dev", "label recorded on each run entry")
		matcher    = flag.String("matcher", "approx", "rounding matcher spec (e.g. exact, approx, suitor, auction(eps=1e-4))")
		figs       = flag.Bool("figs", false, "figure mode: sweep the fig4..fig7 configurations and emit the speedup/per-step curves (-out JSON, -report markdown)")
		figScale   = flag.Float64("fig-scale", 1, "-figs: scale each preset's vertex count by this factor in (0,1]")
		report     = flag.String("report", "", "-figs: write the markdown report to this file")
		scaling    = flag.Bool("scaling", false, "strong-scaling mode: measure 1,2,4,8 threads and print speedup/efficiency and per-step ns")
		out        = flag.String("out", "", "append runs to this JSON document")
		check      = flag.String("check", "", "compare against the baseline entries of this JSON document")
		baseLabel  = flag.String("baseline-label", "baseline", "label of the baseline entries for -check and -gate-against")
		maxAllocs  = flag.Float64("max-alloc-ratio", 1.2, "fail -check when allocs/iter exceeds baseline by this ratio")
		gate       = flag.String("gate", "", "gate this committed JSON document (no measurement)")
		gateBase   = flag.String("gate-against", "", "baseline JSON document for -gate")
		gateLabel  = flag.String("gate-label", "pr4", "label of the candidate entries for -gate")
		maxNsRatio = flag.Float64("max-ns-ratio", 1.10, "fail -gate when 1-thread ns/iter exceeds baseline by this ratio")
		minSpeedup = flag.Float64("min-speedup", 2.0, "multi-thread speedup floor for -gate (scaled down on low-CPU hosts)")
		spThreads  = flag.Int("speedup-threads", 8, "thread count the -gate speedup check inspects")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the measured solves to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the measured solves to this file")
		listConfig = flag.Bool("list", false, "list configurations and exit")
	)
	flag.Parse()

	if *listConfig {
		for _, name := range bench.ConfigNames() {
			fmt.Println(name)
		}
		return
	}

	if *gate != "" {
		runGate(*gate, *gateBase, *gateLabel, *baseLabel, *maxNsRatio, *minSpeedup, *spThreads, *config)
		return
	}

	threadSpec := *threads
	if threadSpec == "" {
		threadSpec = "1"
		if *scaling {
			threadSpec = "1,2,4,8"
		}
	}
	var threadList []int
	for _, part := range strings.Split(threadSpec, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			fmt.Fprintf(os.Stderr, "benchalign: bad thread count %q\n", part)
			os.Exit(2)
		}
		threadList = append(threadList, t)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *figs {
		// The -iters/-reps defaults (40/3) suit the small fig2
		// problems; the fig sweep defaults to 12/1 unless set.
		figIters, figReps := 0, 0
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "iters":
				figIters = *iters
			case "reps":
				figReps = *reps
			}
		})
		figThreads := threadList
		if *threads == "" {
			figThreads = nil // Figs default: 1,2,4,8
		}
		runFigs(bench.FigsOptions{
			Threads: figThreads, Iters: figIters, Reps: figReps,
			Seed: *seed, Label: *label, Scale: *figScale,
		}, *out, *report)
		return
	}

	runs, err := bench.Measure(bench.MeasureOptions{
		Config:  *config,
		Threads: threadList,
		Iters:   *iters,
		Reps:    *reps,
		Seed:    *seed,
		Label:   *label,
		Matcher: *matcher,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	for _, r := range runs {
		fmt.Printf("%-16s %-6s t=%-3d %12.0f ns/iter %10.1f allocs/iter %12.0f B/iter  obj=%.4f\n",
			r.Config, r.Method, r.Threads, r.NsPerIter, r.AllocsPerIter, r.BytesPerIter, r.Objective)
	}
	if *scaling {
		printScaling(runs)
	}

	if *out != "" {
		doc, err := bench.LoadOrNewDoc(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		doc.Runs = append(doc.Runs, runs...)
		doc.Derive()
		if err := doc.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d run(s) to %s\n", len(runs), *out)
	}

	if *check != "" {
		doc, err := bench.LoadDoc(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		failed := false
		for _, r := range runs {
			base, ok := doc.Find(*baseLabel, r.Config, r.Method, r.Threads)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchalign: no %q baseline for %s/%s t=%d in %s\n",
					*baseLabel, r.Config, r.Method, r.Threads, *check)
				failed = true
				continue
			}
			ratio := ratioOf(r.AllocsPerIter, base.AllocsPerIter)
			status := "ok"
			if ratio > *maxAllocs {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("check %s t=%d: allocs/iter %.1f vs baseline %.1f (ratio %.2f, limit %.2f) %s\n",
				r.Config, r.Threads, r.AllocsPerIter, base.AllocsPerIter, ratio, *maxAllocs, status)
		}
		if failed {
			os.Exit(1)
		}
	}
}

// runFigs runs the Figure 4-7 sweep and writes the combined JSON
// document (-out; note the figs schema, not the bench one) and the
// markdown speedup/per-step report (-report).
func runFigs(o bench.FigsOptions, outPath, reportPath string) {
	o.Progress = func(line string) { fmt.Println(line) }
	doc, err := bench.Figs(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
		os.Exit(1)
	}
	if outPath != "" {
		if err := doc.WriteFile(outPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d run(s) to %s\n", len(doc.Runs), outPath)
	}
	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(doc.Markdown()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote report to %s\n", reportPath)
	} else if outPath == "" {
		fmt.Println()
		fmt.Print(doc.Markdown())
	}
}

// runGate compares two committed documents and exits nonzero on any
// gate failure. No solver runs happen: the gate judges recorded
// measurements, so it is deterministic on any CI machine.
func runGate(docPath, basePath, label, baseLabel string, maxNsRatio, minSpeedup float64, spThreads int, speedupConfig string) {
	if basePath == "" {
		fmt.Fprintln(os.Stderr, "benchalign: -gate requires -gate-against")
		os.Exit(2)
	}
	doc, err := bench.LoadDoc(docPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
		os.Exit(1)
	}
	base, err := bench.LoadDoc(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchalign: %v\n", err)
		os.Exit(1)
	}
	o := bench.DefaultGateOptions(label, baseLabel)
	o.MaxNsRatio = maxNsRatio
	o.MinSpeedup = minSpeedup
	o.SpeedupThreads = spThreads
	o.SpeedupConfigs = []string{speedupConfig}
	report, gerr := bench.Gate(doc, base, o)
	for _, line := range report {
		fmt.Println(line)
	}
	if gerr != nil {
		fmt.Fprintf(os.Stderr, "benchalign: %v\n", gerr)
		os.Exit(1)
	}
}

// printScaling renders the strong-scaling view of one -scaling
// invocation: speedup and efficiency against the 1-thread run, then
// the per-step ns breakdown per thread count so the step that limits
// scaling is visible without a profiler.
func printScaling(runs []bench.Run) {
	var base *bench.Run
	for i := range runs {
		if runs[i].Threads == 1 {
			base = &runs[i]
			break
		}
	}
	if base == nil || base.NsPerIter <= 0 {
		return
	}
	fmt.Println()
	fmt.Printf("strong scaling (%s, vs t=1):\n", base.Config)
	fmt.Printf("  %-8s %14s %9s %11s\n", "threads", "ns/iter", "speedup", "efficiency")
	for _, r := range runs {
		sp := base.NsPerIter / r.NsPerIter
		fmt.Printf("  %-8d %14.0f %8.2fx %10.1f%%\n",
			r.Threads, r.NsPerIter, sp, 100*sp/float64(r.Threads))
	}

	stepSet := map[string]bool{}
	for _, r := range runs {
		for s := range r.StepNs {
			stepSet[s] = true
		}
	}
	if len(stepSet) == 0 {
		return
	}
	steps := make([]string, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	sort.Strings(steps)
	fmt.Println()
	fmt.Printf("  per-step ns (fastest rep, whole solve):\n")
	fmt.Printf("  %-24s", "step")
	for _, r := range runs {
		fmt.Printf(" %12s", fmt.Sprintf("t=%d", r.Threads))
	}
	fmt.Println()
	for _, s := range steps {
		fmt.Printf("  %-24s", s)
		for _, r := range runs {
			fmt.Printf(" %12d", r.StepNs[s])
		}
		fmt.Println()
	}
}

// ratioOf compares allocation counts, treating a zero baseline as "any
// allocation at all is a regression" but tolerating exact zero.
func ratioOf(cur, base float64) float64 {
	if base <= 0 {
		if cur <= 0 {
			return 1
		}
		return cur + 1 // zero-alloc baseline: any allocs trip the gate
	}
	return cur / base
}
