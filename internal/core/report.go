package core

import (
	"fmt"
	"strings"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/matching"
)

// Report summarizes an alignment the way a practitioner inspects one:
// objective decomposition, matching statistics, the overlapped edge
// pairs, and — when a reference alignment is known (the planted truth
// of synthetic problems, or a curated alignment) — precision and
// recall against it. It backs the computational-steering workflow of
// Section IX, where a human evaluates solutions and adjusts inputs.
type Report struct {
	Objective   float64
	MatchWeight float64
	Overlap     float64
	Card        int
	UnmatchedA  int
	UnmatchedB  int

	// Precision and Recall are against the reference (NaN-free; zero
	// when no reference was supplied or it is empty).
	Precision float64
	Recall    float64

	// EdgeCorrectness is the standard network-alignment quality metric
	// EC = (# overlapped edges) / min(|E_A|, |E_B|) ∈ [0, 1].
	EdgeCorrectness float64

	// OverlappedPairs lists, for each overlapped pair of graph edges,
	// the two L-edges realizing it (each unordered pair once).
	OverlappedPairs [][2]int
}

// NewReport builds a report for a matching; reference may be nil.
func (p *Problem) NewReport(r *matching.Result, reference *matching.Result, threads int) *Report {
	x := r.Indicator(p.L)
	rep := &Report{
		Objective:   p.Objective(x, threads),
		MatchWeight: p.MatchWeight(x, threads),
		Overlap:     p.Overlap(x, threads),
		Card:        r.Card,
	}
	for _, b := range r.MateA {
		if b < 0 {
			rep.UnmatchedA++
		}
	}
	for _, a := range r.MateB {
		if a < 0 {
			rep.UnmatchedB++
		}
	}
	minEdges := p.A.NumEdges()
	if be := p.B.NumEdges(); be < minEdges {
		minEdges = be
	}
	if minEdges > 0 {
		rep.EdgeCorrectness = rep.Overlap / float64(minEdges)
	}
	// Enumerate overlapped pairs via the nonzeros of S under x.
	for e1 := 0; e1 < p.S.Rows(); e1++ {
		if x[e1] == 0 {
			continue
		}
		lo, hi := p.S.RowRange(e1)
		for _, c := range p.S.Col[lo:hi] {
			if e2 := int(c); e2 > e1 && x[e2] != 0 {
				rep.OverlappedPairs = append(rep.OverlappedPairs, [2]int{e1, e2})
			}
		}
	}
	if reference != nil {
		refPairs := 0
		hit := 0
		for a, b := range reference.MateA {
			if b < 0 {
				continue
			}
			refPairs++
			if a < len(r.MateA) && r.MateA[a] == b {
				hit++
			}
		}
		if rep.Card > 0 {
			rep.Precision = float64(hit) / float64(rep.Card)
		}
		if refPairs > 0 {
			rep.Recall = float64(hit) / float64(refPairs)
		}
	}
	return rep
}

// String renders the report.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective    %.4f\n", rep.Objective)
	fmt.Fprintf(&b, "match weight %.4f\n", rep.MatchWeight)
	fmt.Fprintf(&b, "overlap      %.0f edge pairs\n", rep.Overlap)
	fmt.Fprintf(&b, "matched      %d (unmatched A: %d, B: %d)\n", rep.Card, rep.UnmatchedA, rep.UnmatchedB)
	fmt.Fprintf(&b, "edge corr.   %.3f\n", rep.EdgeCorrectness)
	if rep.Precision > 0 || rep.Recall > 0 {
		fmt.Fprintf(&b, "precision    %.3f\n", rep.Precision)
		fmt.Fprintf(&b, "recall       %.3f\n", rep.Recall)
	}
	return b.String()
}

// RemoveCandidates returns a new problem whose candidate graph L lacks
// the given edges (by canonical edge index), rebuilding S. It is the
// steering primitive of Section IX: "users may want to fix certain
// problematic alignments by removing potential matches from L and
// recompute".
func (p *Problem) RemoveCandidates(edges []int, threads int) (*Problem, error) {
	drop := make(map[int]bool, len(edges))
	for _, e := range edges {
		if e < 0 || e >= p.L.NumEdges() {
			return nil, fmt.Errorf("core: candidate edge %d out of range", e)
		}
		drop[e] = true
	}
	kept := make([]int, 0, p.L.NumEdges()-len(drop))
	for e := 0; e < p.L.NumEdges(); e++ {
		if !drop[e] {
			kept = append(kept, e)
		}
	}
	return p.keepCandidates(kept, threads)
}

// PinCandidates returns a new problem where the given L-edges are the
// only candidates incident to their endpoints (the complementary
// steering move: lock an alignment in by removing its competitors).
func (p *Problem) PinCandidates(edges []int, threads int) (*Problem, error) {
	pinA := make(map[int]int)
	pinB := make(map[int]int)
	for _, e := range edges {
		if e < 0 || e >= p.L.NumEdges() {
			return nil, fmt.Errorf("core: candidate edge %d out of range", e)
		}
		pinA[p.L.EdgeA[e]] = e
		pinB[p.L.EdgeB[e]] = e
	}
	kept := make([]int, 0, p.L.NumEdges())
	for e := 0; e < p.L.NumEdges(); e++ {
		if pe, ok := pinA[p.L.EdgeA[e]]; ok && pe != e {
			continue
		}
		if pe, ok := pinB[p.L.EdgeB[e]]; ok && pe != e {
			continue
		}
		kept = append(kept, e)
	}
	return p.keepCandidates(kept, threads)
}

// TransferEdgeVector maps a vector over from's candidate edges onto
// to's canonical edge order by (a, b) pair; pairs absent from the
// target get zero. It carries BP messages or heuristic scores across a
// steering edit (RemoveCandidates/PinCandidates), enabling warm
// restarts via BPOptions.WarmY/WarmZ.
func TransferEdgeVector(from, to *Problem, vec []float64) ([]float64, error) {
	if len(vec) != from.L.NumEdges() {
		return nil, fmt.Errorf("core: vector length %d != %d source edges", len(vec), from.L.NumEdges())
	}
	out := make([]float64, to.L.NumEdges())
	for e := 0; e < to.L.NumEdges(); e++ {
		if se, ok := from.L.Find(to.L.EdgeA[e], to.L.EdgeB[e]); ok {
			out[e] = vec[se]
		}
	}
	return out, nil
}

// keepCandidates rebuilds the problem on a subset of L's edges.
func (p *Problem) keepCandidates(kept []int, threads int) (*Problem, error) {
	edges := make([]bipartite.WeightedEdge, 0, len(kept))
	for _, e := range kept {
		edges = append(edges, bipartite.WeightedEdge{A: p.L.EdgeA[e], B: p.L.EdgeB[e], W: p.L.W[e]})
	}
	l, err := bipartite.New(p.L.NA, p.L.NB, edges)
	if err != nil {
		return nil, err
	}
	return NewProblem(p.A, p.B, l, p.Alpha, p.Beta, threads)
}
