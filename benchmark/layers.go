package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/core"
	"netalignmc/internal/problemio"
	"netalignmc/internal/server"
	"netalignmc/internal/stats"
)

// probeReps is how many times a traced run repeats each standalone
// layer call; the metric is the median.
const probeReps = 3

// otherIterations bounds the solves of the method a workload does not
// run, which a traced run times only for its per-step breakdown.
const otherIterations = 10

var stepNames = map[core.Method][]string{
	core.MethodBP: {core.BPStepBoundF, core.BPStepComputeD, core.BPStepOthermax, core.BPStepUpdateS, core.BPStepDamping, core.BPStepMatch},
	core.MethodMR: {core.MRStepRowMatch, core.MRStepDaxpy, core.MRStepMatch, core.MRStepObjective, core.MRStepUpdateU},
}

// stepMetrics sets the per-iteration time of every step of r's method
// and the median time per call outside the timed steps.
func stepMetrics(vals map[string]float64, method core.Method, r *solveRun) {
	for _, step := range stepNames[method] {
		vals[fmt.Sprintf("%s.%s_ms", method, step)] = ms(r.timer.Total(step)) / float64(r.iters)
	}
	vals[method.String()+".untimed_ms"] = median(r.untimed)
}

// solverLayers sets the solver, parallel-runtime and allocation
// metrics on problem p. own holds timed solves of w's method at the
// workload's thread count when the run already made them; otherwise
// they are made here. The other method is timed for its step
// breakdown, and w's method at one thread and at GOMAXPROCS for the
// speed-up.
func solverLayers(vals map[string]float64, w workload, p *core.Problem, threads int, own *solveRun) error {
	var err error
	if own == nil {
		if own, err = solveLoop(p, w, threads, true, nil, reps(probeReps)); err != nil {
			return err
		}
	}
	stepMetrics(vals, w.method, own)
	iters := float64(own.iters)
	vals["parallel.pool_regions_per_iter"] = float64(own.sched.PoolRegions) / iters
	vals["parallel.spawn_regions_per_iter"] = float64(own.sched.SpawnRegions) / iters
	vals["parallel.shared_busy_per_iter"] = float64(own.sched.SharedBusyFallbacks) / iters
	vals["alloc.allocs_per_iter"] = float64(own.mallocs) / iters
	vals["alloc.bytes_per_iter"] = float64(own.bytes) / iters

	other := w
	other.method, other.iterations = core.MethodMR, otherIterations
	if w.method == core.MethodMR {
		other.method = core.MethodBP
	}
	otherRun, err := solveLoop(p, other, threads, true, nil, reps(probeReps))
	if err != nil {
		return err
	}
	stepMetrics(vals, other.method, otherRun)

	maxThreads := runtime.GOMAXPROCS(0)
	one, all := own, own
	if threads != 1 {
		if one, err = solveLoop(p, w, 1, false, nil, reps(probeReps)); err != nil {
			return err
		}
	}
	if threads != maxThreads {
		if all, err = solveLoop(p, w, maxThreads, false, nil, reps(probeReps)); err != nil {
			return err
		}
	}
	vals["parallel.speedup"] = median(one.walls) / median(all.walls)
	vals["alloc.allocs_per_iter_t1"] = float64(one.mallocs) / float64(one.iters)

	var builds []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, err := core.NewProblem(p.A, p.B, p.L, p.Alpha, p.Beta, threads); err != nil {
			return fmt.Errorf("rebuild problem: %w", err)
		}
		builds = append(builds, ms(time.Since(t0)))
	}
	vals["core.build_problem_ms"] = median(builds)
	return nil
}

// requestLayers times, as standalone calls on the workload's own job
// bodies, what a node does to admit a job (decode, build, canonicalize,
// hash), what the router does to route it (Spec.CacheKey), and the
// node's spool writes, on a throwaway spool under dir with fsync.
func requestLayers(vals map[string]float64, w workload, dir string, bodies [][]byte, result []byte) error {
	fp, err := w.fingerprint()
	if err != nil {
		return err
	}
	var decode, build, canon, hash, route []float64
	var spec server.Spec
	var canonical []byte
	for _, body := range bodies {
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			spec = server.Spec{}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				return fmt.Errorf("decode job body: %w", err)
			}
			t1 := time.Now()
			p, err := spec.BuildProblem(1)
			if err != nil {
				return fmt.Errorf("build job problem: %w", err)
			}
			t2 := time.Now()
			var buf bytes.Buffer
			if err := problemio.Write(&buf, p); err != nil {
				return fmt.Errorf("canonicalize job problem: %w", err)
			}
			t3 := time.Now()
			key := cache.KeyFor(buf.Bytes(), fp)
			t4 := time.Now()
			routeKey, _, err := spec.CacheKey(runtime.GOMAXPROCS(0))
			t5 := time.Now()
			if err != nil {
				return fmt.Errorf("route key: %w", err)
			}
			if routeKey != key {
				return fmt.Errorf("the router's key %s differs from the node's %s", routeKey, key)
			}
			decode = append(decode, ms(t1.Sub(t0)))
			build = append(build, ms(t2.Sub(t1)))
			canon = append(canon, ms(t3.Sub(t2)))
			hash = append(hash, ms(t4.Sub(t3)))
			route = append(route, ms(t5.Sub(t4)))
			canonical = buf.Bytes()
		}
	}
	vals["admit.decode_ms"] = median(decode)
	vals["admit.build_ms"] = median(build)
	vals["admit.canon_ms"] = median(canon)
	vals["admit.hash_ms"] = median(hash)
	vals["router.key_ms_p50"] = median(route)

	spool := filepath.Join(dir, "store-probe")
	defer os.RemoveAll(spool)
	st, err := server.NewStore(spool)
	if err != nil {
		return err
	}
	var saveProblem, saveResult, saveMeta []float64
	for i := 0; i < probeReps; i++ {
		id := fmt.Sprintf("%016x", i)
		if err := st.CreateJob(id); err != nil {
			return err
		}
		now := time.Now()
		meta := &server.Meta{ID: id, Spec: spec, State: server.StateDone, Created: now, Started: now, Finished: now}
		t0 := time.Now()
		err := st.SaveProblemBytes(id, canonical)
		t1 := time.Now()
		if err == nil {
			err = st.SaveResultBytes(id, result)
		}
		t2 := time.Now()
		if err == nil {
			err = st.SaveMeta(meta)
		}
		t3 := time.Now()
		if err != nil {
			return err
		}
		saveProblem = append(saveProblem, ms(t1.Sub(t0)))
		saveResult = append(saveResult, ms(t2.Sub(t1)))
		saveMeta = append(saveMeta, ms(t3.Sub(t2)))
	}
	vals["store.save_problem_ms"] = median(saveProblem)
	vals["store.save_result_ms"] = median(saveResult)
	vals["store.save_meta_ms"] = median(saveMeta)
	return nil
}

// traceOverheadPct estimates the share of a measured phase's CPU time
// that tracing took: the spans and step-timer calls the phase recorded,
// each at the cost of one measured here.
func traceOverheadPct(spans, timerCalls int, cpu time.Duration) float64 {
	const n = 20000
	tr := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		start := time.Now()
		tr.record("probe", "", start, time.Now())
	}
	perSpan := time.Since(t0) / n
	timer := stats.NewStepTimer()
	t1 := time.Now()
	for i := 0; i < n; i++ {
		timer.Time("probe", func() {})
	}
	perCall := time.Since(t1) / n
	cost := time.Duration(spans)*perSpan + time.Duration(timerCalls)*perCall
	return 100 * float64(cost) / float64(cpu)
}

// timerCalls counts the step timings t recorded.
func timerCalls(t *stats.StepTimer) int {
	n := 0
	for _, step := range t.Steps() {
		n += t.Count(step)
	}
	return n
}
