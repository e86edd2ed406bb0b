package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/parallel"
	"netalignmc/internal/stats"
)

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median, and the last set-up is the one measured.
const setupRepeats = 3

// reference.json records the objective each solve workload reaches
// with the default seed, so a change that alters the solver's output
// fails the run instead of passing as a speed-up.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed       int64              `json:"seed"`
	Objectives map[string]float64 `json:"objectives"`
}

// referenceObjective returns the recorded objective of workload name
// for seed, if one is recorded.
func referenceObjective(name string, seed int64) (float64, bool, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return 0, false, fmt.Errorf("reference.json: %w", err)
	}
	obj, ok := ref.Objectives[name]
	return obj, ok && seed == ref.Seed, nil
}

// solveRun is a sequence of Align calls on one problem, with the
// process counters taken around the whole sequence.
type solveRun struct {
	walls   []float64 // ms per call
	untimed []float64 // ms per call outside the timed steps (timed runs)
	results []*core.AlignResult
	timer   *stats.StepTimer // nil for untimed runs
	iters   int
	mallocs uint64
	bytes   uint64
	sched   parallel.SchedStats // counter deltas
	cpu     time.Duration
}

// solveLoop calls Align on p with w's options at the given thread
// count until more, asked after each call, reports false. A timed loop
// hands the solver one step timer for all its calls.
func solveLoop(p *core.Problem, w workload, threads int, timed bool, tr *tracer, more func(calls int, elapsed time.Duration) bool) (*solveRun, error) {
	r := &solveRun{}
	if timed {
		r.timer = stats.NewStepTimer()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s0 := parallel.Stats()
	cpu0 := cpuTime()
	start := time.Now()
	for len(r.walls) == 0 || more(len(r.walls), time.Since(start)) {
		steps0 := r.timer.GrandTotal()
		t0 := time.Now()
		res, err := p.Align(context.Background(), w.options(threads, r.timer))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: align: %w", w.name, err)
		}
		tr.record("solve", "", t0, t1)
		r.walls = append(r.walls, ms(t1.Sub(t0)))
		if timed {
			r.untimed = append(r.untimed, ms(t1.Sub(t0)-(r.timer.GrandTotal()-steps0)))
		}
		r.results = append(r.results, res)
		r.iters += res.Iterations
	}
	r.cpu = cpuTime() - cpu0
	s1 := parallel.Stats()
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.sched = parallel.SchedStats{
		PoolRegions:         s1.PoolRegions - s0.PoolRegions,
		SpawnRegions:        s1.SpawnRegions - s0.SpawnRegions,
		SharedBusyFallbacks: s1.SharedBusyFallbacks - s0.SharedBusyFallbacks,
	}
	return r, nil
}

// reps returns a loop condition that stops after n calls.
func reps(n int) func(int, time.Duration) bool {
	return func(calls int, _ time.Duration) bool { return calls < n }
}

// runSolve runs a solve workload: set up (generate the problem, one
// warm-up solve) setupRepeats times, then solve back to back for the
// measured period at GOMAXPROCS threads.
func runSolve(w workload, seed int64, seconds time.Duration, traced bool, dir string) (*outcome, *tracer, error) {
	threads := runtime.GOMAXPROCS(0)
	var (
		p      *core.Problem
		warm   *core.AlignResult
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		p, warm = nil, nil // let the previous set-up's memory go first
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = w.problem(seed, 0); err != nil {
			return nil, nil, err
		}
		if warm, err = p.Align(context.Background(), w.options(threads, nil)); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up solve: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	run, err := solveLoop(p, w, threads, traced, tr, func(_ int, elapsed time.Duration) bool {
		return elapsed < seconds
	})
	if err != nil {
		return nil, nil, err
	}

	o := newOutcome()
	o.attempted = len(run.results)
	want := warm.JSON()
	refObj, haveRef, err := referenceObjective(w.name, seed)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range run.results {
		doc := res.JSON()
		switch err := w.checkResult(p, doc); {
		case err != nil:
			o.fail("solve %d: %v", i, err)
		case doc.Objective != want.Objective || !slices.Equal(doc.MateA, want.MateA):
			o.fail("solve %d: objective %v differs from the warm-up solve's %v", i, doc.Objective, want.Objective)
		case haveRef && !sameObjective(doc.Objective, refObj):
			o.fail("solve %d: objective %v, reference.json records %v for seed %d", i, doc.Objective, refObj, seed)
		}
	}

	if !traced {
		o.values["latency_ms_p50"] = median(run.walls)
		// About 40 solves fit in a run, too few for the tail rule; this
		// p90 measures solve-to-solve jitter.
		o.values["latency_ms_p90"] = quantile(run.walls, 0.9)
		o.values["cpu_ms_per_op"] = ms(run.cpu) / float64(len(run.walls))
		o.values["setup_s"] = median(setups)
		o.values["peak_rss_mb"] = peakRSSMiB()
		return o, nil, nil
	}

	o.values["trace.overhead_pct"] = traceOverheadPct(len(run.walls), timerCalls(run.timer), run.cpu)
	if err := solverLayers(o.values, w, p, threads, run); err != nil {
		return nil, nil, err
	}
	body, err := w.body(p)
	if err != nil {
		return nil, nil, err
	}
	result, err := json.Marshal(want)
	if err != nil {
		return nil, nil, err
	}
	if err := requestLayers(o.values, w, dir, [][]byte{body}, result); err != nil {
		return nil, nil, err
	}
	// The service layers, on this workload's problem: one job that
	// solves and one that hits the cache.
	if err := serveProbe(o, w, dir, body, p, tr); err != nil {
		return nil, nil, err
	}
	return o, tr, nil
}
