package core

import (
	"math"

	"netalignmc/internal/matching"
	"netalignmc/internal/parallel"
)

// BaselineKind selects one of the non-iterative (or cheaply iterative)
// baselines that MR and BP are measured against.
type BaselineKind int

const (
	// BaselineRoundWeights is the straightforward heuristic of
	// Section III: ignore the overlap term and round the input weights
	// w directly with one bipartite matching.
	BaselineRoundWeights BaselineKind = iota
	// BaselineIsoRank is an IsoRank-style similarity propagation
	// (Singh et al., the source of the paper's dmela-scere instance):
	// power iteration x ← (1−η)·ŵ + η·norm(S·x) over the candidate
	// edges — S restricted to E_L×E_L is exactly the product-graph
	// adjacency IsoRank walks on — followed by one rounding.
	BaselineIsoRank
	// BaselineNSD is a network-similarity-decomposition-style
	// iteration (Kollias, Mohammadi, Grama — cited as [11] in the
	// paper's introduction): like IsoRank but with the propagation
	// degree-normalized per candidate pair, score(i,i') averaging
	// rather than summing the neighboring pair scores. Restricted to
	// the candidate edges E_L, one step is x ← D⁻¹·S·x with
	// D[(i,i')] = deg_A(i)·deg_B(i').
	BaselineNSD
)

// String returns the baseline name.
func (k BaselineKind) String() string {
	switch k {
	case BaselineIsoRank:
		return "isorank"
	case BaselineNSD:
		return "nsd"
	default:
		return "round-weights"
	}
}

// BaselineOptions configures BaselineAlign.
type BaselineOptions struct {
	Kind BaselineKind
	// Iterations is the number of power iterations (IsoRank only;
	// default 20).
	Iterations int
	// Eta is the propagation weight in (0,1) (IsoRank only; default
	// 0.85, the conventional IsoRank alpha).
	Eta float64
	// Threads is the worker count (<= 0 means GOMAXPROCS).
	Threads int
	// Rounding is the matcher used to round (nil = exact).
	Rounding matching.Matcher
}

// BaselineAlign runs a baseline heuristic and returns its alignment.
func (p *Problem) BaselineAlign(o BaselineOptions) *AlignResult {
	if o.Iterations <= 0 {
		o.Iterations = 20
	}
	if o.Eta <= 0 || o.Eta >= 1 {
		o.Eta = 0.85
	}
	rounding := o.Rounding
	if rounding == nil {
		rounding = matching.Exact
	}
	threads := o.Threads
	mEL := p.L.NumEdges()

	heur := make([]float64, mEL)
	copy(heur, p.L.W)

	if (o.Kind == BaselineIsoRank || o.Kind == BaselineNSD) && p.S.NNZ() > 0 {
		x := make([]float64, mEL)
		next := make([]float64, mEL)
		copy(x, p.L.W)
		normalize(x, threads)
		wNorm := make([]float64, mEL)
		copy(wNorm, p.L.W)
		normalize(wNorm, threads)
		// NSD normalizes each propagated score by the candidate
		// pair's degree product (neighbor averaging); IsoRank uses the
		// raw sum with a global renormalization.
		var invDeg []float64
		if o.Kind == BaselineNSD {
			invDeg = make([]float64, mEL)
			for e := 0; e < mEL; e++ {
				d := p.A.Degree(p.L.EdgeA[e]) * p.B.Degree(p.L.EdgeB[e])
				if d > 0 {
					invDeg[e] = 1 / float64(d)
				}
			}
		}
		for it := 0; it < o.Iterations; it++ {
			parallel.ForDynamic(mEL, threads, parallel.DefaultChunk, func(lo, hi int) {
				p.S.mulVec(next, x, lo, hi)
				if invDeg != nil {
					for e := lo; e < hi; e++ {
						next[e] *= invDeg[e]
					}
				}
			})
			normalize(next, threads)
			parallel.ForStatic(mEL, threads, func(lo, hi int) {
				for e := lo; e < hi; e++ {
					next[e] = (1-o.Eta)*wNorm[e] + o.Eta*next[e]
				}
			})
			x, next = next, x
		}
		copy(heur, x)
	}

	tr := &Tracker{}
	if _, _, err := p.RoundHeuristic(heur, rounding, threads, 1, tr); err != nil {
		out := p.emptyResult()
		out.Err = err
		return out
	}
	res, obj := tr.BestMatching, tr.BestObjective
	xInd := res.Indicator(p.L)
	return &AlignResult{
		Matching:    res,
		Objective:   obj,
		MatchWeight: p.MatchWeight(xInd, threads),
		Overlap:     p.Overlap(xInd, threads),
		BestIter:    1,
		Iterations:  o.Iterations,
		Evaluations: tr.Evaluations,
	}
}

// normalize scales v to unit 1-norm (no-op on a zero vector).
func normalize(v []float64, threads int) {
	sum := parallel.SumFloat64(len(v), threads, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += math.Abs(v[i])
		}
		return s
	})
	if sum == 0 {
		return
	}
	inv := 1 / sum
	parallel.ForStatic(len(v), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] *= inv
		}
	})
}
