package core

// Golden tests: the tiny K2/K2 problem (A = B = a single edge, L the
// complete 2x2 candidate graph with unit weights, alpha=1, beta=2) is
// small enough to execute Listings 1 and 2 by hand; these tests pin
// the implementations to the hand-computed values.
//
// L's canonical edge order: e0=(0,0), e1=(0,1), e2=(1,0), e3=(1,1).
// S pairs e0<->e3 and e1<->e2 (both graphs' single edge overlaps under
// either perfect matching).

import (
	"math"
	"testing"

	"netalignmc/internal/matching"
)

func TestGoldenBPFirstIterations(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	type snap struct{ y, z []float64 }
	var snaps []snap
	p.BPAlign(BPOptions{
		Iterations: 2,
		Gamma:      0.99,
		Observer: func(iter int, y, z []float64) {
			snaps = append(snaps, snap{append([]float64(nil), y...), append([]float64(nil), z...)})
		},
	})
	if len(snaps) != 2 {
		t.Fatalf("observer called %d times", len(snaps))
	}
	// Iteration 1 by hand:
	//   F = bound_{0,2}(2*S + 0) = 2 on every nonzero.
	//   d = 1*w + F·e = 1 + 2 = 3 on every edge.
	//   othermaxcol(z0=0) = 0 (clamped), so y = 3; likewise z = 3.
	//   damping with gamma^1: y = 0.99*3 = 2.97.
	for e := 0; e < 4; e++ {
		if math.Abs(snaps[0].y[e]-2.97) > 1e-12 || math.Abs(snaps[0].z[e]-2.97) > 1e-12 {
			t.Fatalf("iter1 messages: y=%v z=%v, want all 2.97", snaps[0].y, snaps[0].z)
		}
	}
	// Iteration 2 by hand:
	//   S^(1) = (y+z-d)*S - F = (3+3-3) - 2 = 1 per nonzero, damped to 0.99.
	//   F = bound_{0,2}(2 + 0.99) = 2 (clamped).
	//   d = 3 again.
	//   othermax(2.97-vectors): every row/col has two edges at 2.97, so
	//   othermax = 2.97 everywhere; undamped y = z = 3 - 2.97 = 0.03.
	//   damping gamma^2 = 0.9801: y = 0.9801*0.03 + 0.0199*2.97.
	want := 0.9801*0.03 + (1-0.9801)*2.97
	for e := 0; e < 4; e++ {
		if math.Abs(snaps[1].y[e]-want) > 1e-12 {
			t.Fatalf("iter2 y[%d] = %.12f, want %.12f", e, snaps[1].y[e], want)
		}
	}
}

func TestGoldenBPNoDamping(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	var firstY []float64
	p.BPAlign(BPOptions{
		Iterations: 1,
		Damp:       DampNone,
		Observer: func(iter int, y, z []float64) {
			firstY = append([]float64(nil), y...)
		},
	})
	// Without damping the iteration-1 messages stay at exactly 3.
	for e := 0; e < 4; e++ {
		if firstY[e] != 3 {
			t.Fatalf("undamped y = %v, want all 3", firstY)
		}
	}
}

func TestGoldenMRFirstIteration(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	var gotUpper, gotObj float64
	var gotWbar []float64
	res := p.KlauAlign(MROptions{
		Iterations:   5,
		GapTolerance: 1e-12,
		Observer: func(iter int, wbar []float64, upper, obj float64) {
			if iter == 1 {
				gotWbar = append([]float64(nil), wbar...)
				gotUpper, gotObj = upper, obj
			}
		},
	})
	// Iteration 1 by hand (U=0):
	//   row weights = beta/2 * S = 1 per nonzero.
	//   each row of S has one nonzero; its singleton matching has
	//   value 1, so d = 1 on every edge and wbar = 1*1 + 1 = 2.
	for e := 0; e < 4; e++ {
		if gotWbar[e] != 2 {
			t.Fatalf("wbar = %v, want all 2", gotWbar)
		}
	}
	// x is a perfect matching: upper = wbar'x = 4; objective =
	// alpha*2 + beta/2 * 2 = 4. Upper == lower, so MR must detect
	// optimality at iteration 1.
	if gotUpper != 4 || gotObj != 4 {
		t.Fatalf("upper=%g obj=%g, want 4/4", gotUpper, gotObj)
	}
	if !res.Converged || res.ConvergedIter != 1 {
		t.Fatalf("MR did not detect the closed gap: %+v", res)
	}
	if res.Objective != 4 {
		t.Fatalf("final objective %g", res.Objective)
	}
}

func TestGoldenSMatrixPairs(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	perm := p.SPerm
	// The transpose permutation on the 4 symmetric entries must be an
	// involution with no fixed points (no diagonal entries).
	for k, pk := range perm {
		if int(perm[pk]) != k {
			t.Fatalf("perm not involutive at %d", k)
		}
		if int(pk) == k {
			t.Fatalf("fixed point %d implies a diagonal entry", k)
		}
	}
}

func TestGoldenObjectiveAgainstMatchers(t *testing.T) {
	// Every matcher must find a perfect matching here (weight 2), and
	// the alignment objective of any perfect matching is 4.
	p := tinyProblem(t, 1, 2)
	for name, m := range map[string]matching.Matcher{
		"exact":   matching.Exact,
		"approx":  matching.Approx,
		"greedy":  matching.Greedy,
		"suitor":  matching.Suitor,
		"auction": matching.NewAuctionMatcher(1e-9),
	} {
		tr := &Tracker{}
		obj, res, err := p.RoundHeuristic(p.L.W, m, 1, 1, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Card != 2 {
			t.Fatalf("%s: matched %d edges", name, res.Card)
		}
		if obj != 4 {
			t.Fatalf("%s: objective %g, want 4", name, obj)
		}
	}
}
