package matching

import "netalignmc/internal/bipartite"

// growInt32/growUint64 extend subset.go's grow helpers to the widths
// the reusable matcher scratches need; contents are unspecified after
// growth and callers reinitialize.

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Reset resizes r for g, marks every vertex unmatched and zeroes the
// totals, reusing the mate arrays' capacity.
func (r *Result) Reset(g *bipartite.Graph) {
	r.MateA = growInts(r.MateA, g.NA)
	r.MateB = growInts(r.MateB, g.NB)
	for i := range r.MateA {
		r.MateA[i] = -1
	}
	for i := range r.MateB {
		r.MateB[i] = -1
	}
	r.Weight = 0
	r.Card = 0
}

// CopyFrom makes r a deep copy of src, reusing r's capacity. Trackers
// use it to retain a snapshot of a matching whose buffers the caller
// will recycle on the next iteration.
func (r *Result) CopyFrom(src *Result) {
	r.MateA = append(r.MateA[:0], src.MateA...)
	r.MateB = append(r.MateB[:0], src.MateB...)
	r.Weight = src.Weight
	r.Card = src.Card
}

// Rescore recomputes Weight and Card from g's weights, keeping the
// mate arrays. Rounding uses it to re-base a matching computed on
// heuristic weights onto the candidate graph's true weights.
func (r *Result) Rescore(g *bipartite.Graph) {
	r.Weight = 0
	r.Card = 0
	for a, b := range r.MateA {
		if b < 0 {
			continue
		}
		if e, ok := g.Find(a, b); ok {
			r.Weight += g.W[e]
			r.Card++
		}
	}
}

// IndicatorInto writes the edge-indicator vector of r over g's
// canonical edge order into x, growing it only if too small, and
// returns it.
func (r *Result) IndicatorInto(g *bipartite.Graph, x []float64) []float64 {
	x = growFloats(x, g.NumEdges())
	for i := range x {
		x[i] = 0
	}
	for a, b := range r.MateA {
		if b < 0 {
			continue
		}
		if e, ok := g.Find(a, b); ok {
			x[e] = 1
		}
	}
	return x
}

// MatchInto is the reusable counterpart of Matcher: it writes the
// matching into out (which may be nil, allocating a fresh Result) and
// returns it. Implementations own whatever scratch state the algorithm
// needs, so steady-state calls on graphs of stable size allocate
// nothing. A MatchInto value is NOT safe for concurrent use — callers
// running matchers in parallel (batched rounding) hold one per worker.
type MatchInto func(g *bipartite.Graph, threads int, out *Result) *Result

// Reusable returns a MatchInto for the spec. locally-dominant and
// Suitor (which approx runs) get genuinely reusable scratch; the
// remaining algorithms (exact, greedy, path-growing, auction) fall
// back to the plain Matcher and copy into out, preserving the
// interface contract without pretending to be allocation-free.
func (s MatcherSpec) Reusable() (MatchInto, error) {
	if err := s.validateParams(); err != nil {
		return nil, err
	}
	switch s.Name {
	case "locally-dominant":
		sc := &LocallyDominantScratch{}
		opts := LocallyDominantOptions{OneSidedInit: s.OneSided, SortedAdjacency: s.Sorted, Chunk: s.Chunk}
		return func(g *bipartite.Graph, threads int, out *Result) *Result {
			return LocallyDominantInto(g, threads, opts, sc, out)
		}, nil
	case "approx", "suitor":
		sc := &SuitorScratch{}
		return func(g *bipartite.Graph, threads int, out *Result) *Result {
			return SuitorInto(g, threads, sc, out)
		}, nil
	default:
		m, err := s.Matcher()
		if err != nil {
			return nil, err
		}
		return func(g *bipartite.Graph, threads int, out *Result) *Result {
			r := m(g, threads)
			if out == nil {
				return r
			}
			out.CopyFrom(r)
			return out
		}, nil
	}
}
