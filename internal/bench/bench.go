// Package bench is the measurement core of cmd/benchalign: it runs the
// alignment solvers on the paper's synthetic configurations and
// records per-iteration time, allocation, and per-step breakdowns as
// the machine-readable BENCH_*.json documents committed at the repo
// root. Keeping it as a package (rather than inline in the command)
// lets the test suite pin the schema and the measurement invariants.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/stats"
)

// Schema identifies the document format; bump on breaking changes.
const Schema = "netalignmc-bench/v1"

// Config is one named benchmark configuration: a problem generator
// plus solver parameters. The names follow the paper's figures.
type Config struct {
	Name string
	// Method is "bp" or "mr".
	Method string
	// DBar is the synthetic expected candidate degree (Figure 2 axis).
	DBar float64
	// N overrides the synthetic vertex count (0 = generator default).
	N int
	// Batch is BP's rounding batch size (0 = 1).
	Batch int
}

// configs are the built-in configurations. fig2-bp is the acceptance
// configuration: the paper's Figure 2 synthetic problem (power-law
// graphs, expected candidate degree 8) solved with BP and approximate
// rounding.
var configs = []Config{
	{Name: "fig2-bp", Method: "bp", DBar: 8},
	{Name: "fig2-bp-batch20", Method: "bp", DBar: 8, Batch: 20},
	{Name: "fig2-mr", Method: "mr", DBar: 8},
	{Name: "fig2-sparse-bp", Method: "bp", DBar: 2},
	{Name: "fig2-sparse-mr", Method: "mr", DBar: 2},
}

// figMethods maps each gen.FigPreset to the solver the paper measures
// on it; fig6 additionally uses batched rounding.
var figMethods = map[string]struct {
	method string
	batch  int
}{
	"fig4": {method: "bp"},
	"fig5": {method: "mr"},
	"fig6": {method: "bp", batch: 20},
	"fig7": {method: "bp"},
}

func init() {
	// The Figure 4-7 scaling configurations share their problem shapes
	// with the gensynth presets so `gensynth -preset figN` reproduces
	// exactly what `benchalign -figs` measures.
	for _, name := range gen.FigPresetNames() {
		so, err := gen.FigPreset(name, 0)
		if err != nil {
			panic(err)
		}
		fm := figMethods[name]
		configs = append(configs, Config{
			Name: name + "-" + fm.method, Method: fm.method,
			DBar: so.ExpectedDegree, N: so.N, Batch: fm.batch,
		})
	}
}

// ConfigNames lists the built-in configuration names.
func ConfigNames() []string {
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.Name
	}
	return names
}

func configByName(name string) (Config, error) {
	for _, c := range configs {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("bench: unknown config %q (want one of %v)", name, ConfigNames())
}

// Run is one measured benchmark entry.
type Run struct {
	Label      string `json:"label"`
	Config     string `json:"config"`
	Method     string `json:"method"`
	Matcher    string `json:"matcher"`
	Threads    int    `json:"threads"`
	Iterations int    `json:"iterations"`
	Reps       int    `json:"reps"`
	Seed       int64  `json:"seed"`
	// NsPerIter is the fastest rep's wall time divided by iterations.
	NsPerIter float64 `json:"ns_per_iter"`
	// AllocsPerIter and BytesPerIter are runtime.MemStats deltas over
	// the fastest rep, divided by iterations (solve-level setup is
	// included, so steady-state zero-alloc iterations show up as a
	// small constant, not exactly zero).
	AllocsPerIter float64 `json:"allocs_per_iter"`
	BytesPerIter  float64 `json:"bytes_per_iter"`
	TotalNs       int64   `json:"total_ns"`
	// Objective cross-checks correctness: entries for the same config,
	// seed and iteration count must agree regardless of threads or
	// kernel fusion.
	Objective float64 `json:"objective"`
	// StepNs is the per-step StepTimer breakdown of the fastest rep.
	StepNs   map[string]int64 `json:"step_ns,omitempty"`
	Recorded string           `json:"recorded,omitempty"`
}

// Host describes the measuring machine.
type Host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Go     string `json:"go"`
}

// ScalingEntry is one strong-scaling ratio derived from the runs.
type ScalingEntry struct {
	Label   string  `json:"label"`
	Config  string  `json:"config"`
	Method  string  `json:"method"`
	Threads int     `json:"threads"`
	Speedup float64 `json:"speedup"` // ns(t=1) / ns(t)
	// Efficiency is Speedup/Threads: 1.0 is perfect strong scaling.
	Efficiency float64 `json:"efficiency"`
}

// Improvement compares a label against the "baseline" label for the
// same config, method and thread count.
type Improvement struct {
	Label       string  `json:"label"`
	Config      string  `json:"config"`
	Method      string  `json:"method"`
	Threads     int     `json:"threads"`
	NsRatio     float64 `json:"ns_ratio"`     // label ns / baseline ns
	AllocsRatio float64 `json:"allocs_ratio"` // label allocs / baseline allocs
}

// Derived holds quantities computed from the raw runs on every write.
type Derived struct {
	StrongScaling []ScalingEntry `json:"strong_scaling,omitempty"`
	Improvements  []Improvement  `json:"improvements,omitempty"`
}

// Doc is the BENCH_*.json document.
type Doc struct {
	Schema  string   `json:"schema"`
	Host    Host     `json:"host"`
	Runs    []Run    `json:"runs"`
	Derived *Derived `json:"derived,omitempty"`
}

// NewDoc returns an empty document for this host.
func NewDoc() *Doc {
	return &Doc{
		Schema: Schema,
		Host: Host{
			GOOS:   runtime.GOOS,
			GOARCH: runtime.GOARCH,
			CPUs:   runtime.NumCPU(),
			Go:     runtime.Version(),
		},
	}
}

// LoadDoc reads a document from disk.
func LoadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, d.Schema, Schema)
	}
	return &d, nil
}

// LoadOrNewDoc reads a document, or returns a fresh one if the file
// does not exist yet.
func LoadOrNewDoc(path string) (*Doc, error) {
	d, err := LoadDoc(path)
	if os.IsNotExist(err) || (err != nil && os.IsNotExist(unwrapAll(err))) {
		return NewDoc(), nil
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

func unwrapAll(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}

// WriteFile writes the document atomically (temp file + rename).
func (d *Doc) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// Find returns the first run with the given label, config, method and
// thread count.
func (d *Doc) Find(label, config, method string, threads int) (Run, bool) {
	for _, r := range d.Runs {
		if r.Label == label && r.Config == config && r.Method == method && r.Threads == threads {
			return r, true
		}
	}
	return Run{}, false
}

// Derive recomputes the derived section (strong scaling per label and
// improvements versus the "baseline" label) from the raw runs.
func (d *Doc) Derive() {
	der := &Derived{}
	type key struct {
		label, config, method string
	}
	base := map[key]Run{}
	for _, r := range d.Runs {
		if r.Threads == 1 {
			base[key{r.Label, r.Config, r.Method}] = r
		}
	}
	for _, r := range d.Runs {
		if b, ok := base[key{r.Label, r.Config, r.Method}]; ok && r.Threads > 1 && r.NsPerIter > 0 {
			sp := b.NsPerIter / r.NsPerIter
			der.StrongScaling = append(der.StrongScaling, ScalingEntry{
				Label: r.Label, Config: r.Config, Method: r.Method,
				Threads: r.Threads, Speedup: sp,
				Efficiency: sp / float64(r.Threads),
			})
		}
	}
	for _, r := range d.Runs {
		if r.Label == "baseline" {
			continue
		}
		b, ok := d.Find("baseline", r.Config, r.Method, r.Threads)
		if !ok || b.NsPerIter <= 0 {
			continue
		}
		imp := Improvement{
			Label: r.Label, Config: r.Config, Method: r.Method, Threads: r.Threads,
			NsRatio: r.NsPerIter / b.NsPerIter,
		}
		if b.AllocsPerIter > 0 {
			imp.AllocsRatio = r.AllocsPerIter / b.AllocsPerIter
		}
		der.Improvements = append(der.Improvements, imp)
	}
	sort.Slice(der.StrongScaling, func(i, j int) bool {
		a, b := der.StrongScaling[i], der.StrongScaling[j]
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Threads < b.Threads
	})
	sort.Slice(der.Improvements, func(i, j int) bool {
		a, b := der.Improvements[i], der.Improvements[j]
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Threads < b.Threads
	})
	if len(der.StrongScaling) == 0 && len(der.Improvements) == 0 {
		d.Derived = nil
		return
	}
	d.Derived = der
}

// MeasureOptions parameterizes one Measure call.
type MeasureOptions struct {
	Config  string
	Threads []int
	Iters   int
	Reps    int
	Seed    int64
	Label   string
	// Matcher is the rounding matcher spec text (empty = approx).
	Matcher string
	// ScaleN scales the configuration's vertex count (0 or 1 = full
	// size); used by Figs to shrink the Fig 4-7 problems.
	ScaleN float64
}

// Measure runs the named configuration at every requested thread count
// and returns one Run per thread count. The problem is built once per
// thread count is wrong — it is built once and shared; solver runs do
// not mutate it.
func Measure(o MeasureOptions) ([]Run, error) {
	cfg, err := configByName(o.Config)
	if err != nil {
		return nil, err
	}
	return MeasureConfig(cfg, o)
}

// MeasureConfig is Measure for an explicit configuration (o.Config is
// ignored); Figs uses it to run the Fig 4-7 shapes at a scale.
func MeasureConfig(cfg Config, o MeasureOptions) ([]Run, error) {
	if o.Iters <= 0 {
		o.Iters = 40
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	matcherText := o.Matcher
	if matcherText == "" {
		matcherText = "approx"
	}
	spec, err := matching.ParseMatcherSpec(matcherText)
	if err != nil {
		return nil, err
	}
	if _, err := spec.Matcher(); err != nil {
		return nil, err
	}

	so := gen.DefaultSynthetic(cfg.DBar, o.Seed)
	if cfg.N > 0 {
		so.N = cfg.N
	}
	if o.ScaleN > 0 && o.ScaleN < 1 {
		if so.N = int(float64(so.N) * o.ScaleN); so.N < 2 {
			so.N = 2
		}
	}
	p, err := gen.Synthetic(so)
	if err != nil {
		return nil, err
	}

	var runs []Run
	for _, threads := range o.Threads {
		r, err := measureOne(p, cfg, o, spec, threads)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// measureOne runs cfg on p at one thread count: one warmup solve, then
// Reps measured solves; the fastest rep's time, allocations and step
// breakdown are reported. The solves share one workspace (warmed by
// the warmup solve) through the unified Align API, so the measurement
// reflects the steady-state hot path.
func measureOne(p *core.Problem, cfg Config, o MeasureOptions, spec matching.MatcherSpec, threads int) (Run, error) {
	ws := core.NewWorkspace()
	solve := func(timer *stats.StepTimer) (*core.AlignResult, error) {
		switch cfg.Method {
		case "bp":
			res, err := p.Align(context.Background(), core.Options{Method: core.MethodBP, BP: core.BPOptions{
				Iterations: o.Iters, Batch: cfg.Batch, Threads: threads,
				Matcher: spec, Workspace: ws,
				SkipFinalExact: true, Timer: timer,
			}})
			return res, err
		case "mr":
			res, err := p.Align(context.Background(), core.Options{Method: core.MethodMR, MR: core.MROptions{
				Iterations: o.Iters, Threads: threads,
				Matcher: spec, Workspace: ws,
				SkipFinalExact: true, Timer: timer,
			}})
			return res, err
		default:
			return nil, fmt.Errorf("bench: config %s has unknown method %q", cfg.Name, cfg.Method)
		}
	}

	// Warmup: pre-touch all lazily built structures.
	if _, err := solve(nil); err != nil {
		return Run{}, err
	}

	run := Run{
		Label: o.Label, Config: cfg.Name, Method: cfg.Method, Matcher: spec.String(),
		Threads: threads, Iterations: o.Iters, Reps: o.Reps, Seed: o.Seed,
		Recorded: time.Now().UTC().Format(time.RFC3339),
	}
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < o.Reps; rep++ {
		timer := stats.NewStepTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := solve(timer)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return Run{}, err
		}
		iters := res.Iterations
		if iters <= 0 {
			iters = o.Iters
		}
		if rep == 0 || elapsed.Nanoseconds() < run.TotalNs {
			run.TotalNs = elapsed.Nanoseconds()
			run.NsPerIter = float64(elapsed.Nanoseconds()) / float64(iters)
			run.AllocsPerIter = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
			run.BytesPerIter = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters)
			run.Objective = res.Objective
			steps := map[string]int64{}
			for step, d := range timer.Snapshot() {
				steps[step] = d.Nanoseconds()
			}
			run.StepNs = steps
		}
	}
	return run, nil
}
