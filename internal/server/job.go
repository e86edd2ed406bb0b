// Package server implements netalignd, the alignment job service: an
// HTTP/JSON API over a bounded worker pool that runs BP/MR solves as
// managed jobs with durable state, periodic checkpoints, cooperative
// cancellation, live SSE progress, and crash recovery that resumes
// interrupted jobs bit-identically from their last checkpoint.
//
// The package is layered as:
//
//	Store   — the spool directory: one subdirectory per job holding
//	          job.json (spec + state), problem.txt (the canonicalized
//	          problem), checkpoint.ckpt and result.json.
//	Manager — the job lifecycle: a FIFO queue with a depth limit, a
//	          fixed pool of worker goroutines, the state machine
//	          queued → running → {done, failed, cancelled, numerics},
//	          drain-on-shutdown and resume-on-startup.
//	Server  — the HTTP surface: /v1/jobs CRUD, SSE events, /healthz,
//	          /metrics, expvar and pprof.
package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/cli"
	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
)

// State is a job's lifecycle state. Jobs move strictly
// queued → running → one of the terminal states; a drained or crashed
// running job moves back to queued and is resumed from its checkpoint
// on the next startup.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateNumerics: the numeric guard stopped the run; the result
	// holds the best valid matching found before the failure.
	StateNumerics State = "numerics"
	// StateQuarantined: a poison job — it exhausted its retry budget
	// or was caught mid-running across too many consecutive daemon
	// restarts (a crash loop). Quarantined jobs never again consume a
	// worker slot, but their spool (spec, problem, last checkpoint)
	// is kept for inspection, and POST /v1/jobs/{id}/requeue moves
	// them back to queued with a fresh budget.
	StateQuarantined State = "quarantined"
	// StateHandedOff: a proactive drain exported this job — spec,
	// canonical problem bytes, retry budget and latest checkpoint — to
	// a ring successor, which admitted it under the same job id and
	// resumes it bit-identically. Terminal on this node: recovery must
	// never re-run a handed-off job (the successor owns it now), so the
	// spool record is kept only as a tombstone pointing at the
	// receiving node.
	StateHandedOff State = "handed_off"
)

// Terminal reports whether the state is final: no worker will touch
// the job again without operator action (for quarantined, an explicit
// requeue).
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateNumerics, StateQuarantined, StateHandedOff:
		return true
	}
	return false
}

func validState(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateNumerics, StateQuarantined, StateHandedOff:
		return true
	}
	return false
}

// GeneratorSpec asks the server to build the problem with internal/gen
// instead of uploading one; it mirrors the gensynth CLI flags. With a
// fixed Seed the construction is deterministic, so a recovered job
// sees the same problem (the manager additionally canonicalizes every
// problem to disk at submit time, making this true for uploads too).
type GeneratorSpec struct {
	// Type is the problem family: synthetic (default), dmela-scere,
	// homo-musm, lcsh-wiki or lcsh-rameau.
	Type string `json:"type,omitempty"`
	// N and DBar parameterize the synthetic family (vertices and
	// expected candidate degree).
	N    int     `json:"n,omitempty"`
	DBar float64 `json:"dbar,omitempty"`
	// Perturb is the synthetic edge-perturbation probability.
	Perturb float64 `json:"perturb,omitempty"`
	// Scale shrinks the dataset stand-ins (0 = full size).
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

// Spec is the body of POST /v1/jobs: solver parameters plus exactly
// one problem source — an inline problem in the netalign format, an
// uploaded A/B/L triple (SMAT or MTX), or a generator spec.
type Spec struct {
	// Method is "bp" (default) or "mr".
	Method string `json:"method,omitempty"`
	// Iterations is the iteration budget (default 100).
	Iterations int `json:"iterations,omitempty"`
	// Batch is BP's rounding batch size r (default 1).
	Batch int `json:"batch,omitempty"`
	// Gamma is BP's damping base / MR's initial step (0 = defaults).
	Gamma float64 `json:"gamma,omitempty"`
	// MStep is MR's stall window before halving the step.
	MStep int `json:"mstep,omitempty"`
	// Approx rounds with the parallel half-approximate matcher. Kept
	// for compatibility; Matcher supersedes it when non-empty.
	Approx bool `json:"approx,omitempty"`
	// Matcher selects the rounding matcher as a spec string (see
	// matching.ParseMatcherSpec): "exact", "approx", "suitor",
	// "locally-dominant(sorted=true)", ... Empty falls back to Approx.
	Matcher string `json:"matcher,omitempty"`
	// Fused, Pipeline and Reorder are accepted and ignored (v1
	// compatibility): old clients' requests, spooled job.json records
	// and handoff payloads carry them and must still decode under
	// DisallowUnknownFields. Reorder still rejects values other than
	// none, auto, degree and rcm. None enters the cache key.
	Fused    bool   `json:"fused,omitempty"`
	Pipeline bool   `json:"pipeline,omitempty"`
	Reorder  string `json:"reorder,omitempty"`
	// Threads bounds one solve's parallelism (0 = server default).
	Threads int `json:"threads,omitempty"`
	// TimeoutSec bounds the solve's wall time (0 = unbounded); expiry
	// completes the job as done with stop reason "deadline".
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
	// ProgressEvery throttles progress events to every Nth iteration
	// (0 = every iteration).
	ProgressEvery int `json:"progressEvery,omitempty"`
	// CheckpointEvery overrides the server's checkpoint interval in
	// iterations (0 = server default).
	CheckpointEvery int `json:"checkpointEvery,omitempty"`

	// Tenant names the submitting tenant for fair-share scheduling,
	// quotas and metrics (default "default"). Allowed characters:
	// letters, digits, '.', '_', '-'; at most 64 bytes. Tenant never
	// enters the result-cache key — identical problems coalesce and
	// share cached results across tenants.
	Tenant string `json:"tenant,omitempty"`
	// Class is the scheduling class: "batch" (default) or
	// "interactive". Interactive jobs are dispatched before batch jobs
	// and may checkpoint-preempt a running batch job when all worker
	// slots are busy. Like Tenant, it is excluded from cache keys.
	Class string `json:"class,omitempty"`
	// DeadlineMS, when positive, bounds the job's queue wait (the
	// deadline_ms field of the v1 API): a job still waiting for a
	// worker DeadlineMS milliseconds after admission is finalized
	// failed instead of dispatched. It does not bound the solve itself
	// (that is TimeoutSec) and never affects the cache key; a cache or
	// coalescing hit admits instantly and trivially meets any deadline.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`

	// Alpha and Beta are the objective weights for uploaded problems
	// (both zero selects the paper's α=1, β=2; inline netalign-format
	// problems carry their own).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`

	// Problem is an inline problem in the netalign combined format
	// (the output of gensynth / netalignmc.WriteProblem).
	Problem string `json:"problem,omitempty"`
	// A, B, L upload the two graphs and the candidate graph; Format
	// selects their encoding: "smat" (default) or "mtx".
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	L      string `json:"l,omitempty"`
	Format string `json:"format,omitempty"`
	// Generator builds the problem server-side.
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// Validate checks the spec's solver parameters and that exactly one
// problem source is present.
func (s *Spec) Validate() error {
	switch s.Method {
	case "", "bp", "mr":
	default:
		return fmt.Errorf("unknown method %q (want bp or mr)", s.Method)
	}
	if s.Iterations < 0 || s.Batch < 0 || s.MStep < 0 || s.Threads < 0 ||
		s.ProgressEvery < 0 || s.CheckpointEvery < 0 {
		return fmt.Errorf("negative solver parameter")
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("negative timeoutSec")
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("negative deadlineMs")
	}
	switch s.Class {
	case "", ClassInteractive, ClassBatch:
	default:
		return fmt.Errorf("unknown class %q (want %s or %s)", s.Class, ClassInteractive, ClassBatch)
	}
	if err := validTenant(s.Tenant); err != nil {
		return err
	}
	switch s.Reorder {
	case "", "none", "auto", "degree", "rcm":
	default:
		return fmt.Errorf("unknown reorder mode %q (want none, auto, degree or rcm)", s.Reorder)
	}
	if s.Alpha < 0 || s.Beta < 0 {
		return fmt.Errorf("negative objective weights alpha=%g beta=%g", s.Alpha, s.Beta)
	}
	switch s.Format {
	case "", "smat", "mtx":
	default:
		return fmt.Errorf("unknown format %q (want smat or mtx)", s.Format)
	}
	if _, err := matching.ParseMatcherSpec(s.matcherText()); err != nil {
		return err
	}
	sources := 0
	if s.Problem != "" {
		sources++
	}
	if s.A != "" || s.B != "" || s.L != "" {
		if s.A == "" || s.B == "" || s.L == "" {
			return fmt.Errorf("uploaded problems need all of a, b and l")
		}
		sources++
	}
	if s.Generator != nil {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("exactly one problem source required (problem, a/b/l, or generator); got %d", sources)
	}
	if s.isGenerated() {
		return s.Generator.validate()
	}
	return nil
}

// Generator limits. Admission builds a generated problem, S included,
// synchronously on the router (CacheKey) and on the node (Submit), so
// its size is bounded before anything is generated. The largest
// accepted synthetic spec (n=2048, dbar=20, perturb·n=40.96) and the
// largest stand-ins (lcsh-wiki at scale 0.05, lcsh-rameau at 0.02)
// each admit in under half a second at one thread on a 2-CPU x86-64
// host, with at most 7.9 MB of canonical bytes, far below
// maxBodyBytes.
const (
	maxGenVertices = 2048
	maxGenDBar     = 20
	// maxGenPerturbDegree bounds perturb·n, the expected number of
	// edges perturbation adds per vertex: the paper's 0.02 at the
	// largest n. A perturbed graph's density is what grows S.
	maxGenPerturbDegree = 0.02 * maxGenVertices
)

// maxStandInScale is the largest accepted scale of each dataset
// stand-in (scale 0 means full size).
var maxStandInScale = map[string]float64{
	"dmela-scere": 1,
	"homo-musm":   1,
	"lcsh-wiki":   0.05,
	"lcsh-rameau": 0.02,
}

// validate rejects generator parameters outside the limits above.
func (g *GeneratorSpec) validate() error {
	if g.Type == "" || g.Type == "synthetic" {
		n := g.N
		if n == 0 {
			n = gen.DefaultSynthetic(0, 0).N
		}
		switch {
		case n < 0 || n > maxGenVertices:
			return fmt.Errorf("generator n=%d out of range [0, %d]", g.N, maxGenVertices)
		case g.DBar < 0 || g.DBar > maxGenDBar:
			return fmt.Errorf("generator dbar=%g out of range [0, %d]", g.DBar, maxGenDBar)
		case g.Perturb < 0 || g.Perturb*float64(n) > maxGenPerturbDegree:
			return fmt.Errorf("generator perturb=%g out of range: want 0 <= perturb·n <= %g", g.Perturb, maxGenPerturbDegree)
		}
		return nil
	}
	limit, ok := maxStandInScale[g.Type]
	if !ok {
		return fmt.Errorf("unknown generator type %q", g.Type)
	}
	if g.Scale < 0 || g.Scale > limit || (g.Scale == 0 && limit < 1) {
		return fmt.Errorf("generator %s scale=%g out of range: want 0 < scale <= %g (0 is full size)", g.Type, g.Scale, limit)
	}
	return nil
}

// methodName returns the effective solver method.
func (s *Spec) methodName() string {
	if s.Method == "" {
		return "bp"
	}
	return s.Method
}

// DefaultTenant is the tenant every untagged submission is accounted
// to; old specs without the field keep working unchanged.
const DefaultTenant = "default"

// tenantName returns the effective tenant without mutating the spec —
// the persisted spec keeps the client's original bytes, so pre-tenant
// job records round-trip byte-for-byte.
func (s *Spec) tenantName() string {
	if s.Tenant == "" {
		return DefaultTenant
	}
	return s.Tenant
}

// className returns the effective scheduling class (default batch).
func (s *Spec) className() string {
	if s.Class == "" {
		return ClassBatch
	}
	return s.Class
}

// validTenant enforces the tenant-name grammar: metrics-label and
// path safe, bounded length. Empty is allowed (means DefaultTenant).
func validTenant(t string) error {
	if len(t) > 64 {
		return fmt.Errorf("tenant name longer than 64 bytes")
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant name %q: character %q not in [A-Za-z0-9._-]", t, c)
		}
	}
	return nil
}

// matcherText returns the effective matcher spec string, folding the
// legacy Approx flag in.
func (s *Spec) matcherText() string {
	if s.Matcher != "" {
		return s.Matcher
	}
	if s.Approx {
		return "approx"
	}
	return "exact"
}

// cacheFingerprint renders the spec's output-affecting solver options
// as the canonical fingerprint the result cache keys on (see
// core.Options.CacheFingerprint). Thread counts, progress and
// checkpoint cadence are absent on purpose: the solve is bit-identical
// across them. The second return is false when the spec cannot be
// cached (unparsable matcher — unreachable for validated specs).
func (s *Spec) cacheFingerprint() (string, bool) {
	mspec, err := matching.ParseMatcherSpec(s.matcherText())
	if err != nil {
		return "", false
	}
	opts := core.Options{
		Method: core.MethodBP,
		BP: core.BPOptions{
			Iterations: s.Iterations, Gamma: s.Gamma, Batch: s.Batch,
			Matcher: mspec,
		},
	}
	if s.methodName() == "mr" {
		opts = core.Options{
			Method: core.MethodMR,
			MR: core.MROptions{
				Iterations: s.Iterations, Gamma: s.Gamma, MStep: s.MStep,
				Matcher: mspec,
			},
		}
	}
	return opts.CacheFingerprint()
}

// CacheKey derives the spec's content address: SHA-256 over the
// canonical problem bytes (exactly what the spool records as
// problem.txt, see canonicalProblem) plus the output-affecting option
// fingerprint. The result cache keys on it, and the cluster router
// shards on it, so identical submissions — routed anywhere — always
// resolve to the same address. The canonical bytes are returned too.
// threads only bounds a generator's problem construction; it cannot
// affect the bytes or the key.
func (s *Spec) CacheKey(threads int) (cache.Key, []byte, error) {
	if err := s.Validate(); err != nil {
		return cache.Key{}, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	pb, err := s.canonicalProblem(threads)
	if err != nil {
		return cache.Key{}, nil, err
	}
	fp, ok := s.cacheFingerprint()
	if !ok {
		return cache.Key{}, nil, fmt.Errorf("%w: unparsable matcher spec", ErrBadSpec)
	}
	return cache.KeyFor(pb, fp), pb, nil
}

// canonicalProblem decodes and checks the spec's problem source and
// returns its canonical bytes: the problemio text the spool records as
// problem.txt and the cache key hashes. It is the one canonicalization
// both the router (CacheKey) and the node (Manager.Submit) run, so the
// two can never disagree on a key. Inline and uploaded sources are
// never turned into a full core.Problem: S is built only when a worker
// loads problem.txt to run the job. A generator spec is built, because
// its problem only exists that way. Decode and check failures wrap
// ErrBadSpec; they are exactly the failures of BuildProblem.
func (s *Spec) canonicalProblem(threads int) ([]byte, error) {
	var (
		parts problemio.Parts
		err   error
	)
	if s.isGenerated() {
		var p *core.Problem
		if p, err = s.generate(threads); err == nil {
			parts = problemio.Parts{A: p.A, B: p.B, L: p.L, Alpha: p.Alpha, Beta: p.Beta}
		}
	} else if parts, err = s.sourceParts(); err == nil {
		err = core.CheckInputs(parts.A, parts.B, parts.L, parts.Alpha, parts.Beta)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	var buf bytes.Buffer
	if err := problemio.WriteParts(&buf, parts); err != nil {
		return nil, fmt.Errorf("server: canonicalize problem: %w", err)
	}
	return buf.Bytes(), nil
}

// BuildProblem materializes the spec's problem source, S included.
// threads bounds the parallelism of S construction.
func (s *Spec) BuildProblem(threads int) (*core.Problem, error) {
	if s.isGenerated() {
		return s.generate(threads)
	}
	parts, err := s.sourceParts()
	if err != nil {
		return nil, err
	}
	return parts.Problem(threads)
}

// isGenerated reports whether the problem comes from the generator
// (an inline problem takes precedence, as in the source switch).
func (s *Spec) isGenerated() bool { return s.Problem == "" && s.Generator != nil }

// weights returns the objective weights for generated and uploaded
// problems: both zero selects the paper's α=1, β=2.
func (s *Spec) weights() (alpha, beta float64) {
	if s.Alpha == 0 && s.Beta == 0 {
		return 1, 2
	}
	return s.Alpha, s.Beta
}

func (s *Spec) generate(threads int) (*core.Problem, error) {
	g := s.Generator
	alpha, beta := s.weights()
	return cli.Generate(cli.GenerateOptions{
		Type: g.Type, N: g.N, DBar: g.DBar, Perturb: g.Perturb,
		Alpha: alpha, Beta: beta, Scale: g.Scale, Seed: g.Seed,
		Threads: threads,
	}, nil)
}

// sourceParts decodes an inline (netalign text) or uploaded (SMAT or
// MTX) problem source without building S or checking the parts.
func (s *Spec) sourceParts() (problemio.Parts, error) {
	if s.Problem != "" {
		return problemio.ReadParts(strings.NewReader(s.Problem))
	}
	alpha, beta := s.weights()
	if s.Format != "mtx" {
		return problemio.ReadSMATParts(
			strings.NewReader(s.A), strings.NewReader(s.B), strings.NewReader(s.L),
			alpha, beta)
	}
	a, err := problemio.ReadGraphMTX(strings.NewReader(s.A))
	if err != nil {
		return problemio.Parts{}, fmt.Errorf("graph a: %w", err)
	}
	b, err := problemio.ReadGraphMTX(strings.NewReader(s.B))
	if err != nil {
		return problemio.Parts{}, fmt.Errorf("graph b: %w", err)
	}
	l, err := problemio.ReadLMTX(strings.NewReader(s.L))
	if err != nil {
		return problemio.Parts{}, fmt.Errorf("graph l: %w", err)
	}
	return problemio.Parts{A: a, B: b, L: l, Alpha: alpha, Beta: beta}, nil
}

// Meta is the durable job record persisted as job.json in the spool;
// together with problem.txt and checkpoint.ckpt it is everything a
// restarted server needs to resume the job.
type Meta struct {
	ID       string    `json:"id"`
	Spec     Spec      `json:"spec"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Resumes counts how many times the job was requeued after a drain
	// or crash.
	Resumes int `json:"resumes,omitempty"`
	// Attempts counts failed runs (I/O errors, panics, stalls,
	// numeric stops). Persisted so the retry budget survives daemon
	// restarts: a job cannot dodge quarantine by crashing the daemon.
	Attempts int `json:"attempts,omitempty"`
	// CrashRuns counts consecutive daemon restarts that found this
	// job mid-running — the crash-loop signal. Reaching the
	// configured limit quarantines the job instead of requeueing it.
	CrashRuns int `json:"crashRuns,omitempty"`
	// Incarnation is the daemon incarnation (see Store.BumpIncarnation)
	// during which the job last entered running; recovery uses it to
	// tell consecutive crash loops from unrelated restarts.
	Incarnation int64 `json:"incarnation,omitempty"`
	// Preemptions counts how many times the job was checkpoint-
	// preempted to yield its worker slot to interactive traffic.
	Preemptions int `json:"preemptions,omitempty"`
	// HandedOffTo records, for a handed_off tombstone, the base URL of
	// the ring successor that accepted the job during a proactive
	// drain; status queries for the id can be redirected there.
	HandedOffTo string `json:"handedOffTo,omitempty"`
}

// newJobID returns a random 16-hex-digit job id.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
