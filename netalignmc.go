// Package netalignmc is a multithreaded network alignment library,
// reproducing "A multithreaded algorithm for network alignment via
// approximate matching" (Khan, Gleich, Pothen, Halappanavar; SC 2012).
//
// Network alignment: given undirected graphs A and B and a weighted
// bipartite candidate graph L between their vertex sets, find a
// matching in L maximizing α·(matched weight) + β·(overlapped edges).
// The package provides the two iterative heuristics the paper studies
// — Klau's matching relaxation (MR) and belief propagation (BP) — with
// a pluggable rounding step: either exact maximum-weight bipartite
// matching or the parallel locally-dominant half-approximation whose
// substitution is the paper's contribution.
//
// Quick start:
//
//	a := netalignmc.NewGraphBuilder(3)
//	a.AddEdge(0, 1)
//	a.AddEdge(1, 2)
//	ga := a.Build()
//	// ... build gb and the candidate graph l similarly ...
//	p, err := netalignmc.NewProblem(ga, gb, l, 1, 2)
//	if err != nil { ... }
//	res := p.BPAlign(netalignmc.BPOptions{
//		Iterations: 100,
//		Matcher:    netalignmc.MatcherSpec{Name: "approx"}, // parallel half-approx rounding
//	})
//	fmt.Println(res.Objective, res.Matching.MateA)
//
// The subpackages under internal implement the substrates (CSR graphs,
// the candidate graph, the matching algorithms, problem generators and
// the experiment harness; the overlap matrix S lives in internal/core
// as its fixed CSR pattern); this package is the supported API surface.
package netalignmc

import (
	"io"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/graph"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
	"netalignmc/internal/stats"
)

// Graph is an immutable undirected graph in CSR form (A and B inputs).
type Graph = graph.Graph

// GraphEdge is an undirected edge.
type GraphEdge = graph.Edge

// GraphBuilder accumulates edges for a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for an n-vertex undirected graph.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds an n-vertex graph from an edge list.
func GraphFromEdges(n int, edges []GraphEdge) *Graph { return graph.FromEdges(n, edges) }

// CandidateGraph is the weighted bipartite graph L of candidate
// vertex pairs.
type CandidateGraph = bipartite.Graph

// CandidateEdge is one weighted candidate pair (a ∈ V_A, b ∈ V_B).
type CandidateEdge = bipartite.WeightedEdge

// NewCandidateGraph builds L from an edge list; duplicate pairs keep
// their maximum weight.
func NewCandidateGraph(na, nb int, edges []CandidateEdge) (*CandidateGraph, error) {
	return bipartite.New(na, nb, edges)
}

// Problem is a network alignment instance with its derived overlap
// matrix S. Alignment methods are methods on Problem: KlauAlign (MR)
// and BPAlign.
type Problem = core.Problem

// NewProblem assembles a problem and builds the overlap matrix S using
// all available cores.
func NewProblem(a, b *Graph, l *CandidateGraph, alpha, beta float64) (*Problem, error) {
	return core.NewProblem(a, b, l, alpha, beta, 0)
}

// Method selects the alignment algorithm for Problem.Align.
type Method = core.Method

// Methods for Options.Method.
const (
	MethodBP = core.MethodBP
	MethodMR = core.MethodMR
)

// Options configures Problem.Align, the unified context-first entry
// point; the method-specific wrappers (BPAlign, KlauAlign, BPAlignCtx,
// MRAlignCtx) are deprecated thin wrappers over it:
//
//	res, err := p.Align(ctx, netalignmc.Options{
//		Method: netalignmc.MethodBP,
//		BP: netalignmc.BPOptions{
//			Iterations: 100,
//			Matcher:    netalignmc.MatcherSpec{Name: "approx"},
//		},
//	})
type Options = core.Options

// Workspace is an arena of reusable solver buffers; pass one via
// BPOptions/MROptions.Workspace to make steady-state iterations and
// warm re-solves allocation-free. One workspace serves one solve at a
// time.
type Workspace = core.Workspace

// NewWorkspace returns an empty workspace, sized on first use.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// MROptions configures Klau's matching relaxation; see the fields'
// documentation in internal/core.
type MROptions = core.MROptions

// BPOptions configures the belief propagation method.
type BPOptions = core.BPOptions

// AlignResult is the outcome of an alignment method.
type AlignResult = core.AlignResult

// StopReason records why an alignment run ended; see AlignResult.Stopped.
type StopReason = core.StopReason

// Stop reasons.
const (
	StopMaxIter   = core.StopMaxIter
	StopConverged = core.StopConverged
	StopCancelled = core.StopCancelled
	StopDeadline  = core.StopDeadline
	StopNumerics  = core.StopNumerics
)

// Checkpoint is a serializable snapshot of a BP or MR run; produce one
// via BPOptions/MROptions.CheckpointEvery + CheckpointFunc, serialize
// it with WriteCheckpoint (format version 2, exact binary values),
// read it back with ReadCheckpoint (either version), and feed it back
// through the Resume option to continue the run bit for bit.
// Problem.BPAlignCtx and Problem.MRAlignCtx accept a context.Context
// for cancellation and deadlines.
type Checkpoint = core.Checkpoint

// FaultInjector corrupts solver state at named steps; used by the
// fault-injection tests, exported so downstream robustness harnesses
// can reuse the hook.
type FaultInjector = core.FaultInjector

// Matching is a bipartite matching result (mates per side, weight,
// cardinality).
type Matching = matching.Result

// Matcher computes a matching of a candidate graph. The baselines
// accept any Matcher for their rounding step (BaselineOptions.Rounding);
// BP and MR select theirs with a MatcherSpec.
type Matcher = matching.Matcher

// MatcherSpec declaratively selects and parameterizes a rounding
// matcher ("exact", "approx", "suitor", "greedy", "locally-dominant",
// "path-growing", "auction"); it marshals to/from text ("suitor",
// "locally-dominant(sorted=true)", "auction(eps=0.01)"), so it travels
// through flags, JSON job specs and config files. The zero value is
// exact matching. "approx" runs Suitor, which returns the same matching
// as the paper's matcher, "locally-dominant(onesided=true)", at lower
// cost; it accepts the sorted and chunk parameters and ignores them.
// It is how BPOptions and MROptions select their rounding matcher: the
// solvers build reusable (allocation-free) matcher state from the spec.
type MatcherSpec = matching.MatcherSpec

// ParseMatcherSpec parses a matcher spec string.
func ParseMatcherSpec(text string) (MatcherSpec, error) {
	return matching.ParseMatcherSpec(text)
}

// MatcherNames lists the recognized MatcherSpec names.
func MatcherNames() []string { return matching.MatcherNames() }

// LocallyDominantOptions configures the parallel approximate matcher.
type LocallyDominantOptions = matching.LocallyDominantOptions

// The built-in matchers:
var (
	// ExactMatcher computes a maximum-weight bipartite matching by
	// successive shortest augmenting paths (serial).
	ExactMatcher Matcher = matching.Exact
	// ApproxMatcher is the parallel half-approximate matcher the
	// "approx" spec names. It runs Suitor, which returns bit for bit
	// the matching of the paper's configuration, the locally-dominant
	// matcher with the bipartite one-sided initialization.
	ApproxMatcher Matcher = matching.Approx
	// GreedyMatcher is the serial sorted-greedy half-approximation.
	GreedyMatcher Matcher = matching.Greedy
)

// NewLocallyDominantMatcher builds an approximate matcher with custom
// options (initialization variant, chunk size).
func NewLocallyDominantMatcher(opts LocallyDominantOptions) Matcher {
	return matching.NewLocallyDominantMatcher(opts)
}

// SuitorMatcher is the Suitor half-approximate matcher (Manne and
// Halappanavar), the successor to the locally-dominant algorithm; for
// distinct weights it computes the same matching.
var SuitorMatcher Matcher = matching.Suitor

// PathGrowingMatcher is the Drake–Hougardy path-growing
// half-approximation (serial, no global sort).
var PathGrowingMatcher Matcher = matching.PathGrowing

// NewAuctionMatcher builds a Bertsekas auction matcher whose result is
// within n·eps of the optimal weight.
func NewAuctionMatcher(eps float64) Matcher { return matching.NewAuctionMatcher(eps) }

// Damping selects the BP damping scheme.
type Damping = core.Damping

// Damping schemes for BPOptions.Damp.
const (
	DampPower    = core.DampPower
	DampConstant = core.DampConstant
	DampNone     = core.DampNone
)

// BaselineKind selects a baseline heuristic for Problem.BaselineAlign.
type BaselineKind = core.BaselineKind

// Baseline kinds.
const (
	BaselineRoundWeights = core.BaselineRoundWeights
	BaselineIsoRank      = core.BaselineIsoRank
	BaselineNSD          = core.BaselineNSD
)

// BaselineOptions configures Problem.BaselineAlign.
type BaselineOptions = core.BaselineOptions

// Report summarizes an alignment (objective decomposition, overlap
// pairs, precision/recall against a reference); see Problem.NewReport.
type Report = core.Report

// LPRelaxationResult is the solved LP relaxation of the MILP
// formulation; see Problem.LPRelaxation.
type LPRelaxationResult = core.LPRelaxationResult

// TrafficModel is the analytical per-iteration memory-traffic model of
// the BP iteration; see core.NewTrafficModel.
type TrafficModel = core.TrafficModel

// NewTrafficModel builds the BP memory-traffic model for a problem and
// rounding batch size.
func NewTrafficModel(p *Problem, batch int) TrafficModel { return core.NewTrafficModel(p, batch) }

// WriteMatching writes an alignment as "a b" pairs.
func WriteMatching(w io.Writer, r *Matching) error { return problemio.WriteMatching(w, r) }

// ReadMatching reads pairs written by WriteMatching for the given
// candidate graph.
func ReadMatching(r io.Reader, l *CandidateGraph) (*Matching, error) {
	return problemio.ReadMatching(r, l)
}

// StepTimer accumulates per-step wall time for the alignment methods;
// pass one via MROptions.Timer or BPOptions.Timer.
type StepTimer = stats.StepTimer

// NewStepTimer returns an empty step timer.
func NewStepTimer() *StepTimer { return stats.NewStepTimer() }

// SyntheticOptions parameterizes the paper's synthetic power-law
// problems (Section VI-A).
type SyntheticOptions = gen.SyntheticOptions

// DefaultSynthetic returns the paper's Figure 2 configuration for a
// given expected candidate degree and seed.
func DefaultSynthetic(expectedDegree float64, seed int64) SyntheticOptions {
	return gen.DefaultSynthetic(expectedDegree, seed)
}

// NewSyntheticProblem builds a synthetic power-law problem with a
// planted identity alignment.
func NewSyntheticProblem(o SyntheticOptions) (*Problem, error) { return gen.Synthetic(o) }

// StandInOptions parameterizes a synthetic stand-in for the paper's
// real datasets (two power-law graphs sharing a planted subgraph).
type StandInOptions = gen.StandInOptions

// NewStandInProblem builds a real-dataset stand-in.
func NewStandInProblem(o StandInOptions) (*Problem, error) { return gen.StandIn(o) }

// Named Table II stand-ins at a scale in (0, 1].
var (
	DmelaScere = gen.DmelaScere
	HomoMusm   = gen.HomoMusm
	LcshWiki   = gen.LcshWiki
	LcshRameau = gen.LcshRameau
)

// CorrectMatchFraction reports the fraction of A-vertices a matching
// maps to their like-numbered B counterpart (the planted alignment of
// the synthetic problems).
func CorrectMatchFraction(r *Matching) float64 { return core.CorrectMatchFraction(r) }

// ProblemStats summarizes a problem as in the paper's Table II.
type ProblemStats = core.Stats

// StatsOf collects Table II statistics.
func StatsOf(name string, p *Problem) ProblemStats { return core.ProblemStats(name, p) }

// WriteCheckpoint serializes a checkpoint in format version 2: text
// header lines, raw little-endian float64 sections and a CRC-32C
// trailer, written with one Write. The values are stored exactly, so
// resume from it reproduces the run bit for bit.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error { return problemio.WriteCheckpoint(w, c) }

// ReadCheckpoint parses a checkpoint of format version 2, or of the
// version-1 hexadecimal text format earlier releases wrote.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) { return problemio.ReadCheckpoint(r) }

// WriteCheckpointFile writes a checkpoint atomically (temp file +
// rename), so an interruption never leaves a truncated checkpoint.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	return problemio.WriteCheckpointFile(path, c)
}

// ReadCheckpointFile reads a checkpoint from a file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	return problemio.ReadCheckpointFile(path)
}

// ReadProblem parses a problem from the netalign text format.
func ReadProblem(r io.Reader) (*Problem, error) { return problemio.Read(r, 0) }

// WriteProblem serializes a problem to the netalign text format.
func WriteProblem(w io.Writer, p *Problem) error { return problemio.Write(w, p) }

// ReadSMATProblem assembles a problem from three SMAT readers (graphs
// A and B as symmetric adjacency matrices, L as a |V_A|x|V_B| weight
// matrix), the data layout of the original netalignmc release.
func ReadSMATProblem(a, b, l io.Reader, alpha, beta float64) (*Problem, error) {
	return problemio.ReadSMATProblem(a, b, l, alpha, beta, 0)
}

// WriteGraphSMAT writes a graph's adjacency matrix in SMAT form.
func WriteGraphSMAT(w io.Writer, g *Graph) error { return problemio.WriteGraphSMAT(w, g) }

// WriteCandidateSMAT writes the candidate graph L in SMAT form.
func WriteCandidateSMAT(w io.Writer, l *CandidateGraph) error { return problemio.WriteLSMAT(w, l) }
