package core_test

// Property-based tests over randomly generated alignment problems:
// invariants that are theorems of the algorithms, checked with
// testing/quick across seeds, sizes and parameters.

import (
	"math"
	"testing"
	"testing/quick"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/matching"
)

func randomProblem(seed int64, nRaw, degRaw uint8) (*core.Problem, error) {
	o := gen.DefaultSynthetic(float64(degRaw%8)+1, seed)
	o.N = int(nRaw)%30 + 10
	o.MaxDeg = 8
	return gen.Synthetic(o)
}

// The MR bound sandwich: every iteration's upper bound dominates its
// rounded objective, and the Lagrangian bound dominates the identity
// alignment's objective.
func TestQuickMRBoundSandwich(t *testing.T) {
	f := func(seed int64, nRaw, degRaw uint8) bool {
		p, err := randomProblem(seed, nRaw, degRaw)
		if err != nil {
			return false
		}
		res := p.KlauAlign(core.MROptions{Iterations: 6, Trace: true})
		idObj := p.Objective(p.IdentityIndicator(), 1)
		minUpper := math.Inf(1)
		for i := range res.Upper {
			if res.Upper[i] < res.Lower[i]-1e-6 {
				return false
			}
			if res.Upper[i] < minUpper {
				minUpper = res.Upper[i]
			}
		}
		return minUpper >= idObj-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Generated problems always verify against the overlap definition.
func TestQuickProblemVerifies(t *testing.T) {
	f := func(seed int64, nRaw, degRaw uint8) bool {
		p, err := randomProblem(seed, nRaw, degRaw)
		if err != nil {
			return false
		}
		return p.Verify(200, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The returned alignment is always a valid matching whose recorded
// objective decomposes as alpha*weight + beta*overlap, for both
// methods and both matchers.
func TestQuickAlignResultsConsistent(t *testing.T) {
	f := func(seed int64, nRaw, degRaw uint8, useBP, approx bool) bool {
		p, err := randomProblem(seed, nRaw, degRaw)
		if err != nil {
			return false
		}
		var spec matching.MatcherSpec
		if approx {
			spec.Name = "approx"
		}
		var res *core.AlignResult
		if useBP {
			res = p.BPAlign(core.BPOptions{Iterations: 5, Matcher: spec})
		} else {
			res = p.KlauAlign(core.MROptions{Iterations: 5, Matcher: spec})
		}
		if res.Matching.Validate(p.L) != nil {
			return false
		}
		want := p.Alpha*res.MatchWeight + p.Beta*res.Overlap
		return math.Abs(res.Objective-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BP's tracked best objective is invariant to the rounding batch size
// (batching reorders work, never results).
func TestQuickBPBatchInvariance(t *testing.T) {
	f := func(seed int64, nRaw, degRaw, batchRaw uint8) bool {
		p, err := randomProblem(seed, nRaw, degRaw)
		if err != nil {
			return false
		}
		batch := int(batchRaw)%19 + 2
		a := p.BPAlign(core.BPOptions{Iterations: 6, Batch: 1})
		b := p.BPAlign(core.BPOptions{Iterations: 6, Batch: batch})
		return math.Abs(a.Objective-b.Objective) <= 1e-9*(1+math.Abs(a.Objective))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The whole problem is symmetric under swapping the roles of A and B
// (with L transposed): the transposed problem has identical Table II
// statistics and the same optimal matching weight.
func TestQuickProblemTransposeSymmetry(t *testing.T) {
	f := func(seed int64, nRaw, degRaw uint8) bool {
		p, err := randomProblem(seed, nRaw, degRaw)
		if err != nil {
			return false
		}
		flipped := make([]bipartite.WeightedEdge, 0, p.L.NumEdges())
		for e := 0; e < p.L.NumEdges(); e++ {
			flipped = append(flipped, bipartite.WeightedEdge{
				A: p.L.EdgeB[e], B: p.L.EdgeA[e], W: p.L.W[e],
			})
		}
		lt, err := bipartite.New(p.L.NB, p.L.NA, flipped)
		if err != nil {
			return false
		}
		pt, err := core.NewProblem(p.B, p.A, lt, p.Alpha, p.Beta, 1)
		if err != nil {
			return false
		}
		if pt.NNZS() != p.NNZS() {
			return false
		}
		r1 := matching.Exact(p.L, 1)
		r2 := matching.Exact(lt, 1)
		return math.Abs(r1.Weight-r2.Weight) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
