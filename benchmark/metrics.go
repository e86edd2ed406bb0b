package main

import (
	"encoding/json"
	"fmt"
	"math"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or the service sees;
// an untraced run prints exactly these. An operation is one Align call
// on the solve workloads and one job, from its scheduled send until
// its result is read, on the serve workloads.
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, named after the module
// that owns them; a traced run prints exactly these. README.md maps
// each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// internal/core, from the solver's step timer: ms per iteration,
	// except untimed (final exact rounding and result assembly) and
	// build_problem, which are ms per call.
	{"bp.boundF_ms", "ms"}, {"bp.computeD_ms", "ms"}, {"bp.othermax_ms", "ms"},
	{"bp.updateS_ms", "ms"}, {"bp.damping_ms", "ms"}, {"bp.match_ms", "ms"}, {"bp.untimed_ms", "ms"},
	{"mr.rowmatch_ms", "ms"}, {"mr.daxpy_ms", "ms"}, {"mr.match_ms", "ms"},
	{"mr.objective_ms", "ms"}, {"mr.updateU_ms", "ms"}, {"mr.untimed_ms", "ms"},
	{"core.build_problem_ms", "ms"},
	// internal/parallel and the Go runtime.
	{"parallel.speedup", "ratio"},
	{"parallel.pool_regions_per_iter", "count"}, {"parallel.spawn_regions_per_iter", "count"},
	{"parallel.shared_busy_per_iter", "count"},
	{"alloc.allocs_per_iter", "count"}, {"alloc.allocs_per_iter_t1", "count"}, {"alloc.bytes_per_iter", "bytes"},
	// internal/cluster.
	{"router.submit_self_ms_p50", "ms"}, {"router.get_self_ms_p50", "ms"}, {"router.key_ms_p50", "ms"},
	{"router.max_node_share", "ratio"}, {"peerfill.probes_per_job", "count"},
	// internal/server.
	{"admit.submit_ms_p50", "ms"}, {"admit.decode_ms", "ms"}, {"admit.build_ms", "ms"},
	{"admit.canon_ms", "ms"}, {"admit.hash_ms", "ms"},
	{"sched.queue_ms_p50", "ms"}, {"sched.queue_ms_mean", "ms"},
	{"run.ms_p50", "ms"}, {"run.ms_mean", "ms"},
	{"store.save_problem_ms", "ms"}, {"store.save_result_ms", "ms"}, {"store.save_meta_ms", "ms"},
	{"store.bytes_per_job", "bytes"},
	{"deliver.status_ms_p50", "ms"}, {"deliver.result_ms_p50", "ms"}, {"deliver.polls_per_job", "count"},
	// internal/cache.
	{"cache.hit_ratio", "ratio"},
	// Validity of the run itself.
	{"loadgen.late_ms_max", "ms"}, {"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted int
	failed    int
	// problems describes every failed check, for standard error.
	problems []string
	values   map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// line renders the outcome with the metrics in defs; every one must
// have been measured.
func (o *outcome) line(defs []metricDef) (string, error) {
	r := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
