// Package cli holds the testable core of the command-line tools:
// structured option types and run functions that the thin main
// packages wrap. Everything here writes human-readable output to a
// caller-supplied writer and returns errors instead of exiting, so the
// full CLI flow is exercised by unit tests.
package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
	"netalignmc/internal/stats"
)

// GenerateOptions selects and parameterizes a problem generator.
type GenerateOptions struct {
	Type    string // synthetic, dmela-scere, homo-musm, lcsh-wiki, lcsh-rameau
	N       int
	DBar    float64
	Perturb float64
	Alpha   float64
	Beta    float64
	Scale   float64
	Seed    int64
	Threads int
	// Preset selects one of the paper's Figure 4-7 synthetic scaling
	// presets (fig4..fig7); it overrides N and DBar, and Scale in
	// (0,1) shrinks the preset's vertex count proportionally.
	Preset string
}

// Generate builds the requested problem and writes it in the netalign
// format to out; it returns the problem for further use.
func Generate(o GenerateOptions, out io.Writer) (*core.Problem, error) {
	var (
		prob *core.Problem
		err  error
	)
	switch o.Type {
	case "synthetic", "":
		so := gen.DefaultSynthetic(o.DBar, o.Seed)
		if o.Preset != "" {
			so, err = gen.FigPreset(o.Preset, o.Seed)
			if err != nil {
				return nil, err
			}
			if o.Scale > 0 && o.Scale < 1 {
				if so.N = int(float64(so.N) * o.Scale); so.N < 2 {
					so.N = 2
				}
			}
		} else if o.N > 0 {
			so.N = o.N
		}
		if o.Perturb > 0 {
			so.PerturbProb = o.Perturb
		}
		if o.Alpha > 0 || o.Beta > 0 {
			so.Alpha, so.Beta = o.Alpha, o.Beta
		}
		so.Threads = o.Threads
		prob, err = gen.Synthetic(so)
	case "dmela-scere":
		prob, err = gen.DmelaScere(o.Scale, o.Seed, o.Threads)
	case "homo-musm":
		prob, err = gen.HomoMusm(o.Scale, o.Seed, o.Threads)
	case "lcsh-wiki":
		prob, err = gen.LcshWiki(o.Scale, o.Seed, o.Threads)
	case "lcsh-rameau":
		prob, err = gen.LcshRameau(o.Scale, o.Seed, o.Threads)
	default:
		return nil, fmt.Errorf("cli: unknown problem type %q", o.Type)
	}
	if err != nil {
		return nil, err
	}
	if out != nil {
		if err := problemio.Write(out, prob); err != nil {
			return nil, fmt.Errorf("cli: writing problem: %w", err)
		}
	}
	return prob, nil
}

// AlignOptions parameterizes one alignment run.
type AlignOptions struct {
	Method string // "bp" or "mr"
	Iters  int
	Batch  int
	Gamma  float64
	MStep  int
	// Approx selects approximate rounding; kept for compatibility with
	// the original flag set. Matcher supersedes it when non-empty.
	Approx bool
	// Matcher is a matcher spec string (see matching.ParseMatcherSpec):
	// "exact", "approx", "suitor", "locally-dominant(sorted=true)", ... It
	// is the one configuration surface for the rounding matcher; when
	// empty, Approx picks between "approx" and "exact".
	Matcher string
	Threads int
	Timing  bool
	Trace   bool

	// Timeout bounds the run's wall time (0 = unbounded); on expiry the
	// best matching found so far is reported with stop reason
	// "deadline".
	Timeout time.Duration
	// CheckpointPath, when set, periodically writes a resumable
	// checkpoint (atomically: temp file + rename) every CheckpointEvery
	// iterations (default 10).
	CheckpointPath  string
	CheckpointEvery int
	// ResumePath, when set, resumes the run from a checkpoint written
	// by a previous invocation with the same problem and method.
	ResumePath string
	// CacheDir, when set, is a content-addressed result cache shared
	// across invocations (the same disk format netalignd's cache tier
	// uses). Before solving, Align hashes the canonical problem bytes
	// plus the output-affecting options and replays a stored result on
	// a hit; after a complete deterministic run (stopped on
	// max-iterations or convergence) it stores the result. Ignored
	// when Timeout or ResumePath is set — those runs' outcomes depend
	// on state outside the key.
	CacheDir string

	// JSON replaces the human-readable summary on out with the
	// machine-readable core.ResultJSON encoding.
	JSON bool
	// Progress streams per-iteration progress lines to ProgressOut
	// (out when nil), throttled to every ProgressEvery-th iteration
	// (0 = every iteration). The same core.ProgressReporter drives the
	// netalignd SSE stream, so the numbers agree between CLI and
	// service.
	Progress      bool
	ProgressEvery int
	ProgressOut   io.Writer
	// Ctx, when non-nil, is the base context for the run; cancelling
	// it stops the solve cooperatively with stop reason "cancelled".
	Ctx context.Context
}

// ErrNumerics is returned (wrapped) by Align when the run stopped
// because the numeric guard hit a recurring NaN/Inf or message
// explosion; the accompanying result still holds the best valid
// matching found before the failure.
var ErrNumerics = fmt.Errorf("numeric guard stopped the run")

// Align runs the requested method on a problem and writes the summary
// to out. It returns the alignment result.
func Align(p *core.Problem, o AlignOptions, out io.Writer) (*core.AlignResult, error) {
	specText := o.Matcher
	if specText == "" {
		if o.Approx {
			specText = "approx"
		} else {
			specText = "exact"
		}
	}
	spec, err := matching.ParseMatcherSpec(specText)
	if err != nil {
		return nil, fmt.Errorf("cli: %w", err)
	}
	roundingName := spec.String()
	var timer *stats.StepTimer
	if o.Timing {
		timer = stats.NewStepTimer()
	}

	methodText := o.Method
	if methodText == "" {
		methodText = "bp"
	}
	var method core.Method
	if err := method.UnmarshalText([]byte(methodText)); err != nil {
		return nil, fmt.Errorf("cli: unknown method %q", o.Method)
	}
	var resume *core.Checkpoint
	if o.ResumePath != "" {
		var err error
		resume, err = problemio.ReadCheckpointFile(o.ResumePath)
		if err != nil {
			return nil, fmt.Errorf("cli: resume: %w", err)
		}
	}
	var ckptEvery int
	var ckptFunc func(*core.Checkpoint) error
	if o.CheckpointPath != "" {
		ckptEvery = o.CheckpointEvery
		if ckptEvery <= 0 {
			ckptEvery = 10
		}
		path := o.CheckpointPath
		ckptFunc = func(c *core.Checkpoint) error {
			return problemio.WriteCheckpointFile(path, c)
		}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}

	var bpObserver func(iter int, y, z []float64)
	var mrObserver func(iter int, wbar []float64, upper, obj float64)
	if o.Progress {
		pout := o.ProgressOut
		if pout == nil {
			pout = out
		}
		reporter := core.NewProgressReporter(p, o.ProgressEvery, func(ev core.ProgressEvent) {
			if ev.HasUpper {
				fmt.Fprintf(pout, "progress iter=%d objective=%.6f best=%.6f upper=%.6f\n",
					ev.Iter, ev.Objective, ev.Best, ev.Upper)
				return
			}
			fmt.Fprintf(pout, "progress iter=%d objective=%.6f best=%.6f\n",
				ev.Iter, ev.Objective, ev.Best)
		})
		bpObserver = reporter.BPObserver()
		mrObserver = reporter.MRObserver()
	}

	// Result cache: key the canonical problem bytes plus the
	// output-affecting option fingerprint. A hit replays the stored
	// result — guaranteed bit-identical to what the solve would
	// produce, because the solver output is a pure function of the key.
	var cacheKey cache.Key
	useCache := false
	if o.CacheDir != "" && o.ResumePath == "" && o.Timeout == 0 {
		fp, ok := core.Options{
			Method: method,
			BP:     core.BPOptions{Iterations: o.Iters, Gamma: o.Gamma, Batch: o.Batch, Matcher: spec},
			MR:     core.MROptions{Iterations: o.Iters, Gamma: o.Gamma, MStep: o.MStep, Matcher: spec},
		}.CacheFingerprint()
		if ok {
			var buf bytes.Buffer
			if err := problemio.Write(&buf, p); err == nil {
				cacheKey = cache.KeyFor(buf.Bytes(), fp)
				useCache = true
			}
		}
	}

	start := time.Now()
	var res *core.AlignResult
	var runErr error
	cached := false
	if useCache {
		if data, err := cache.LoadDisk(o.CacheDir, cacheKey); err == nil {
			var doc core.ResultJSON
			if json.Unmarshal(data, &doc) == nil {
				if r, err := doc.Restore(p); err == nil {
					res, cached = r, true
				}
			}
		}
	}
	if !cached {
		// Options carries both methods' option sets; Align reads only
		// the selected one.
		res, runErr = p.Align(ctx, core.Options{
			Method: method,
			BP: core.BPOptions{
				Iterations: o.Iters, Gamma: o.Gamma, Batch: o.Batch,
				Threads: o.Threads, Matcher: spec,
				Timer: timer, Trace: o.Trace,
				Observer: bpObserver,
				Resume:   resume, CheckpointEvery: ckptEvery, CheckpointFunc: ckptFunc,
			},
			MR: core.MROptions{
				Iterations: o.Iters, Gamma: o.Gamma, MStep: o.MStep,
				Threads: o.Threads, Matcher: spec,
				Timer: timer, Trace: o.Trace,
				Observer: mrObserver,
				Resume:   resume, CheckpointEvery: ckptEvery, CheckpointFunc: ckptFunc,
			},
		})
	}
	elapsed := time.Since(start)
	if runErr != nil {
		return res, fmt.Errorf("cli: %s run: %w", method, runErr)
	}
	if useCache && !cached &&
		(res.Stopped == core.StopMaxIter || res.Stopped == core.StopConverged) {
		// Only deterministic completions enter the cache; cancelled and
		// numerics outcomes depend on when the run was interrupted.
		if data, err := json.Marshal(res.JSON()); err == nil {
			_ = cache.StoreDisk(o.CacheDir, cacheKey, data)
		}
	}

	if o.JSON {
		// Machine mode: out carries exactly one JSON document (the
		// same encoding netalignd stores as result.json) and nothing
		// else. The problem summary rides along so scripts can relate
		// solver behaviour to the instance's nonzero skew.
		doc := res.JSON()
		doc.Problem = p.ProblemSummaryJSON()
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return res, fmt.Errorf("cli: encoding result: %w", err)
		}
		if res.Stopped == core.StopNumerics {
			return res, fmt.Errorf("cli: %w after %d failure(s)", ErrNumerics, res.NumericFailures)
		}
		return res, nil
	}

	threads := o.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(out, "method: %s  rounding: %s  threads: %d  iterations: %d\n",
		method, roundingName, threads, res.Iterations)
	fmt.Fprintf(out, "objective:    %.4f\n", res.Objective)
	fmt.Fprintf(out, "match weight: %.4f\n", res.MatchWeight)
	fmt.Fprintf(out, "overlap:      %.1f\n", res.Overlap)
	fmt.Fprintf(out, "matched:      %d pairs (best found at iteration %d of %d evaluations)\n",
		res.Matching.Card, res.BestIter, res.Evaluations)
	fmt.Fprintf(out, "stopped:      %s\n", res.Stopped)
	if res.NumericFailures > 0 {
		fmt.Fprintf(out, "numeric guard tripped %d time(s)\n", res.NumericFailures)
	}
	if cached {
		fmt.Fprintf(out, "cached:       result replayed from %s\n", o.CacheDir)
	}
	fmt.Fprintf(out, "elapsed:      %v\n", elapsed.Round(time.Millisecond))
	if timer != nil {
		fmt.Fprintf(out, "\nstep breakdown:\n%s", timer)
	}
	if o.Trace {
		fmt.Fprintf(out, "\nobjective trace:\n")
		for i, obj := range res.ObjectiveTrace {
			fmt.Fprintf(out, "  eval %4d: %.4f\n", i+1, obj)
		}
	}
	if res.Stopped == core.StopNumerics {
		return res, fmt.Errorf("cli: %w after %d failure(s); best matching before the failure is reported above", ErrNumerics, res.NumericFailures)
	}
	return res, nil
}

// VerifyOptions parameterizes the verify command.
type VerifyOptions struct {
	// Samples is the number of random S entries to cross-check against
	// the overlap definition (0 = exhaustive over stored entries, only
	// sensible for small problems).
	Samples int
	// Reference, when non-nil, is compared against for precision and
	// recall.
	Reference *matching.Result
}

// Verify checks a problem's internal consistency and, when a matching
// is supplied, validates and reports it. It writes a human-readable
// report and returns an error when anything fails to verify.
func Verify(p *core.Problem, m *matching.Result, o VerifyOptions, out io.Writer) error {
	if err := p.Verify(o.Samples, nil); err != nil {
		return fmt.Errorf("cli: problem verification failed: %w", err)
	}
	fmt.Fprintf(out, "problem verified: S agrees with the overlap definition\n")
	if m == nil {
		return nil
	}
	if err := m.Validate(p.L); err != nil {
		return fmt.Errorf("cli: matching invalid: %w", err)
	}
	rep := p.NewReport(m, o.Reference, 0)
	fmt.Fprintf(out, "matching verified:\n%s", rep)
	return nil
}

// DescribeProblem writes the Table II-style one-line summary plus the
// S row-nonzero skew (Section VI's imbalance observation, and the
// quantity that decides how much nnz-balanced partitioning helps).
func DescribeProblem(p *core.Problem, label string, out io.Writer) {
	st := core.ProblemStats(label, p)
	fmt.Fprintf(out, "problem: |V_A|=%d |V_B|=%d |E_L|=%d nnz(S)=%d alpha=%g beta=%g\n",
		st.VA, st.VB, st.EL, st.NnzS, p.Alpha, p.Beta)
	fmt.Fprintf(out, "S row nnz: max=%d mean=%.2f max/mean=%.2f gini=%.3f\n",
		st.MaxSRow, st.MeanSRow, st.Imbalance, st.SRowGini)
}
