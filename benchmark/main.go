// Command benchmark measures netalignmc end to end and layer by layer.
//
// It runs one of four workloads: two that call core.Problem.Align
// directly (solve-bp, solve-mr) and two that send an open loop of jobs
// through a router and two netalignd nodes served in process over
// loopback HTTP (serve-unique, serve-repeat). Every input is generated
// from -seed, every output is checked, and the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 200, "failed": 0, "metrics": {"latency_ms_p50": {"value": 61.2, "unit": "ms"}, ...}}
//
// An untraced run prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer metrics and writes its spans to a
// JSON file. -compare prints two sets of saved results side by side
// against the bounds in BENCHMARK.json. See README.md.
//
// Usage:
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1> [-spans file]
//	benchmark -compare <dirA> <dirB>
//
// Exit codes: 0 when every check passed, 1 when a check failed or the
// run could not complete, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// workDir holds each run's spools, relative to the directory the
// benchmark runs in; a run removes its own subdirectory at exit.
const workDir = ".bench_build/work"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solve-bp, solve-mr, serve-unique or serve-repeat")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "length of the measured period in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	compare := fs.Bool("compare", false, "compare two directories of saved results: -compare <dirA> <dirB>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result directories")
			return 2
		}
		if err := compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want -trace 0 or 1, -seconds of at least 1 and no arguments")
		return 2
	}

	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(dir)
	out, tr, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defs := endToEnd
	if tr != nil {
		defs = perLayer
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", w.name, *seed))
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "benchmark: FAIL:", p)
	}
	line, err := out.line(defs)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs w once and returns what it measured, plus the
// tracer of a traced run.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, dir string) (*outcome, *tracer, error) {
	if w.serve {
		return runServe(w, seed, seconds, traced, dir)
	}
	return runSolve(w, seed, seconds, traced, dir)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
