// Command netalign runs a network alignment method on a problem file
// produced by gensynth (or by netalignmc.WriteProblem) and prints the
// solution summary; it is the CLI face of the library. The heavy
// lifting lives in internal/cli so it is unit-tested.
//
// Usage:
//
//	netalign -in problem.txt -method bp -iters 400 -batch 20 -approx
//	netalign -a A.smat -b B.smat -l L.smat -method mr -timing
//	netalign -in problem.txt -json -progress > result.json
//
// Exit codes:
//
//	0  success (including a run stopped early by convergence)
//	1  I/O failure (unreadable input, unwritable output)
//	2  usage or run error (bad flags, solver error)
//	3  numeric guard stopped the run (best matching still reported)
//	4  -timeout deadline expired (best matching still reported)
//	5  interrupted (SIGINT/SIGTERM; best matching still reported)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netalignmc/internal/cli"
	"netalignmc/internal/core"
	"netalignmc/internal/problemio"
)

// Exit codes; keep in sync with the doc comment, -h usage and README.
const (
	exitOK        = 0
	exitIO        = 1
	exitUsage     = 2
	exitNumerics  = 3
	exitDeadline  = 4
	exitCancelled = 5
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in      = flag.String("in", "", "problem file (netalign format); or use -a/-b/-l")
		aFile   = flag.String("a", "", "graph A in SMAT format (with -b and -l)")
		bFile   = flag.String("b", "", "graph B in SMAT format")
		lFile   = flag.String("l", "", "candidate graph L in SMAT format")
		alpha   = flag.Float64("alpha", 1, "objective weight on matching weight (SMAT input only)")
		beta    = flag.Float64("beta", 2, "objective weight on overlap (SMAT input only)")
		method  = flag.String("method", "bp", "alignment method: bp or mr")
		iters   = flag.Int("iters", 100, "iterations")
		batch   = flag.Int("batch", 1, "bp: rounding batch size r")
		gamma   = flag.Float64("gamma", 0, "bp: damping base (default 0.99); mr: initial step size (default 0.5)")
		mstep   = flag.Int("mstep", 10, "mr: stall window before halving the step size")
		approx  = flag.Bool("approx", false, "round with the parallel half-approximate matcher instead of exact matching")
		matcher = flag.String("matcher", "", "rounding matcher spec (exact, approx, suitor, greedy, locally-dominant(sorted=true), ...); overrides -approx")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")

		timing  = flag.Bool("timing", false, "print the per-step time breakdown")
		trace   = flag.Bool("trace", false, "print the per-evaluation objective trace")
		outFile = flag.String("out", "", "write the matching as 'a b' pairs to this file")

		jsonOut       = flag.Bool("json", false, "write the result as JSON on stdout (suppresses the human summary)")
		progress      = flag.Bool("progress", false, "stream per-iteration progress lines to stderr")
		progressEvery = flag.Int("progress-every", 0, "report progress every N iterations (0 = every iteration, with -progress)")

		timeout    = flag.Duration("timeout", 0*time.Second, "stop after this wall time and report the best matching found (0 = unbounded)")
		checkpoint = flag.String("checkpoint", "", "periodically write a resumable checkpoint to this file (atomic rename)")
		ckptEvery  = flag.Int("checkpoint-every", 10, "iterations between checkpoints (with -checkpoint)")
		resume     = flag.String("resume", "", "resume from a checkpoint written by a previous run on the same problem")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory shared across runs (ignored with -resume or -timeout)")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "usage: netalign -in problem.txt [flags]\n")
		fmt.Fprintf(w, "       netalign -a A.smat -b B.smat -l L.smat [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(w, "\nExit codes:\n")
		fmt.Fprintf(w, "  %d  success (including a run stopped early by convergence)\n", exitOK)
		fmt.Fprintf(w, "  %d  I/O failure (unreadable input, unwritable output)\n", exitIO)
		fmt.Fprintf(w, "  %d  usage or run error (bad flags, solver error)\n", exitUsage)
		fmt.Fprintf(w, "  %d  numeric guard stopped the run (best matching still reported)\n", exitNumerics)
		fmt.Fprintf(w, "  %d  -timeout deadline expired (best matching still reported)\n", exitDeadline)
		fmt.Fprintf(w, "  %d  interrupted by SIGINT/SIGTERM (best matching still reported)\n", exitCancelled)
	}
	flag.Parse()

	p, label, err := loadProblem(*in, *aFile, *bFile, *lFile, *alpha, *beta, *threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netalign: %v\n", err)
		if err == errUsage {
			flag.Usage()
			return exitUsage
		}
		return exitIO
	}
	if !*jsonOut {
		cli.DescribeProblem(p, label, os.Stdout)
	}

	// A first signal cancels the run cooperatively (the solver stops
	// at the next iteration boundary and reports its best matching); a
	// second one kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := cli.Align(p, cli.AlignOptions{
		Method: *method, Iters: *iters, Batch: *batch, Gamma: *gamma,
		MStep: *mstep, Approx: *approx, Matcher: *matcher,
		Threads: *threads,
		Timing:  *timing, Trace: *trace,
		Timeout: *timeout, CheckpointPath: *checkpoint,
		CheckpointEvery: *ckptEvery, ResumePath: *resume, CacheDir: *cacheDir,
		JSON: *jsonOut, Progress: *progress, ProgressEvery: *progressEvery,
		ProgressOut: os.Stderr, Ctx: ctx,
	}, os.Stdout)
	numericStop := errors.Is(err, cli.ErrNumerics)
	if err != nil && !numericStop {
		fmt.Fprintf(os.Stderr, "netalign: %v\n", err)
		return exitUsage
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netalign: %v\n", err)
			return exitIO
		}
		err = problemio.WriteMatching(f, res.Matching)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "netalign: writing matching: %v\n", err)
			return exitIO
		}
		if !*jsonOut {
			fmt.Printf("matching written to %s\n", *outFile)
		}
	}
	switch {
	case numericStop:
		// The run ended because of a recurring numerical failure. The
		// best valid matching found before the failure was reported
		// (and written, with -out), but the run did not complete: make
		// that visible to scripts via the exit code.
		fmt.Fprintf(os.Stderr, "netalign: %v\n", err)
		return exitNumerics
	case res.Stopped == core.StopDeadline:
		fmt.Fprintf(os.Stderr, "netalign: deadline expired after %d iteration(s); best matching reported\n", res.Iterations)
		return exitDeadline
	case res.Stopped == core.StopCancelled:
		fmt.Fprintf(os.Stderr, "netalign: interrupted after %d iteration(s); best matching reported\n", res.Iterations)
		return exitCancelled
	}
	return exitOK
}

var errUsage = fmt.Errorf("-in (or -a/-b/-l) is required")

func loadProblem(in, aFile, bFile, lFile string, alpha, beta float64, threads int) (*core.Problem, string, error) {
	smatMode := aFile != "" || bFile != "" || lFile != ""
	if in == "" && !smatMode {
		return nil, "", errUsage
	}
	if smatMode {
		if aFile == "" || bFile == "" || lFile == "" {
			return nil, "", fmt.Errorf("SMAT input needs all of -a, -b and -l")
		}
		af, err := os.Open(aFile)
		if err != nil {
			return nil, "", err
		}
		defer af.Close()
		bf, err := os.Open(bFile)
		if err != nil {
			return nil, "", err
		}
		defer bf.Close()
		lf, err := os.Open(lFile)
		if err != nil {
			return nil, "", err
		}
		defer lf.Close()
		p, err := problemio.ReadSMATProblem(af, bf, lf, alpha, beta, threads)
		return p, lFile, err
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	p, err := problemio.Read(f, threads)
	return p, in, err
}
