package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
	"netalignmc/internal/server"
	"netalignmc/internal/stats"
)

// workload is one set of inputs the benchmark runs. Every problem is
// the paper's synthetic power-law construction (Section VI-A) at size n
// and expected candidate degree dbar, generated from the run's seed.
// Solve workloads call core.Problem.Align directly; serve workloads
// send jobs through an in-process router and two nodes.
type workload struct {
	name       string
	serve      bool
	method     core.Method
	n          int
	dbar       float64
	iterations int
	// rate is the serve workloads' offered load in jobs per second.
	rate float64
	// distinct, when positive, is how many problems the serve jobs are
	// drawn from; zero makes every job a different problem.
	distinct int
}

// The sizes are chosen so that the two solve workloads stress
// different solver steps and working sets, and the two serve workloads
// split the request path into its solve and cache-hit halves; see
// README.md for the reasoning and the measured shares.
var workloads = []workload{
	{name: "solve-bp", method: core.MethodBP, n: 4096, dbar: 8, iterations: 40},
	{name: "solve-mr", method: core.MethodMR, n: 2000, dbar: 8, iterations: 40},
	{name: "serve-unique", serve: true, method: core.MethodBP, n: 400, dbar: 8, iterations: 40, rate: 5},
	{name: "serve-repeat", serve: true, method: core.MethodBP, n: 1000, dbar: 8, iterations: 40, rate: 5, distinct: 8},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// approx is the rounding matcher every workload uses: the paper's
// parallel half-approximate matching.
var approx = func() matching.MatcherSpec {
	s, err := matching.ParseMatcherSpec("approx")
	if err != nil {
		panic(err)
	}
	return s
}()

// problemSeed derives the generator seed of problem i from the run seed.
func problemSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// problem generates problem i of a run.
func (w workload) problem(seed int64, i int) (*core.Problem, error) {
	so := gen.DefaultSynthetic(w.dbar, problemSeed(seed, i))
	so.N = w.n
	p, err := gen.Synthetic(so)
	if err != nil {
		return nil, fmt.Errorf("%s: problem %d: %w", w.name, i, err)
	}
	return p, nil
}

// options returns the solver options every solve of w uses. Only the
// method, the iteration budget, the thread count and the matcher are
// set; everything else, including the final exact rounding, stays at
// its default.
func (w workload) options(threads int, timer *stats.StepTimer) core.Options {
	return core.Options{
		Method: w.method,
		BP:     core.BPOptions{Iterations: w.iterations, Threads: threads, Matcher: approx, Timer: timer},
		MR:     core.MROptions{Iterations: w.iterations, Threads: threads, Matcher: approx, Timer: timer},
	}
}

// spec returns the job spec that asks a node for the same solve as
// options, with p inline in the netalign text format.
func (w workload) spec(p *core.Problem) (server.Spec, error) {
	var buf bytes.Buffer
	if err := problemio.Write(&buf, p); err != nil {
		return server.Spec{}, fmt.Errorf("%s: encode problem: %w", w.name, err)
	}
	return server.Spec{Method: w.method.String(), Iterations: w.iterations, Matcher: "approx", Problem: buf.String()}, nil
}

// body returns the POST /v1/jobs body for p.
func (w workload) body(p *core.Problem) ([]byte, error) {
	spec, err := w.spec(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(spec)
}

// fingerprint is the option fingerprint a node hashes with the
// canonical problem bytes to form the job's cache key.
func (w workload) fingerprint() (string, error) {
	o := core.Options{Method: w.method,
		BP: core.BPOptions{Iterations: w.iterations, Matcher: approx},
		MR: core.MROptions{Iterations: w.iterations, Matcher: approx},
	}
	fp, ok := o.CacheFingerprint()
	if !ok {
		return "", fmt.Errorf("%s: options have no cache fingerprint", w.name)
	}
	return fp, nil
}

// objectiveOf checks that mateA is a matching on p's candidate graph L
// and returns its objective recomputed on p.
func objectiveOf(p *core.Problem, mateA []int) (float64, error) {
	if len(mateA) != p.L.NA {
		return 0, fmt.Errorf("mateA has %d entries, L has %d A-vertices", len(mateA), p.L.NA)
	}
	used := make([]bool, p.L.NB)
	x := make([]float64, p.L.NumEdges())
	for a, b := range mateA {
		if b < 0 {
			continue
		}
		if b >= p.L.NB || used[b] {
			return 0, fmt.Errorf("mateA[%d]=%d is out of range or matched twice", a, b)
		}
		e, ok := p.L.Find(a, b)
		if !ok {
			return 0, fmt.Errorf("mateA[%d]=%d is not an edge of L", a, b)
		}
		used[b] = true
		x[e] = 1
	}
	return p.Objective(x, 1), nil
}

// sameObjective compares objectives up to float reassociation.
func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkResult verifies one finished solve of w on p: it ran its whole
// iteration budget, its matching is a matching on L, and the objective
// it reports is the objective of that matching.
func (w workload) checkResult(p *core.Problem, r *core.ResultJSON) error {
	if r.Stopped != core.StopMaxIter || r.Iterations != w.iterations {
		return fmt.Errorf("stopped %v after %d iterations, want max-iterations after %d", r.Stopped, r.Iterations, w.iterations)
	}
	obj, err := objectiveOf(p, r.MateA)
	if err != nil {
		return err
	}
	if !sameObjective(obj, r.Objective) {
		return fmt.Errorf("reported objective %v, its matching scores %v", r.Objective, obj)
	}
	return nil
}
