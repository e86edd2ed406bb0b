package core_test

// Table-driven interaction test: every combination of the main BP and
// MR option axes must produce a valid matching, and with deterministic
// (exact) rounding the objective must be identical across the purely
// scheduling axes (threads, batch, task-parallel othermax).

import (
	"fmt"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

func TestBPOptionMatrix(t *testing.T) {
	p := smallSynthetic(t, 71)
	ref := p.BPAlign(core.BPOptions{Iterations: 10})
	for _, batch := range []int{1, 7, 20} {
		for _, threads := range []int{1, 3} {
			for _, taskOM := range []bool{false, true} {
				name := fmt.Sprintf("batch=%d/threads=%d/taskOM=%v", batch, threads, taskOM)
				r := p.BPAlign(core.BPOptions{
					Iterations: 10, Batch: batch, Threads: threads,
					TaskParallelOthermax: taskOM, Chunk: 16,
				})
				if err := r.Matching.Validate(p.L); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if math.Abs(r.Objective-ref.Objective) > 1e-9 {
					t.Fatalf("%s: objective %g != reference %g (scheduling axes must not change results)",
						name, r.Objective, ref.Objective)
				}
			}
		}
	}
}

func TestBPDampingMatrix(t *testing.T) {
	p := smallSynthetic(t, 73)
	for _, damp := range []core.Damping{core.DampPower, core.DampConstant, core.DampNone} {
		for _, gamma := range []float64{0.5, 0.9, 0.99} {
			for _, rounding := range []matching.Matcher{nil, matching.Approx} {
				r := p.BPAlign(core.BPOptions{
					Iterations: 8, Damp: damp, Gamma: gamma, Rounding: rounding,
				})
				if err := r.Matching.Validate(p.L); err != nil {
					t.Fatalf("damp=%v gamma=%g: %v", damp, gamma, err)
				}
				if r.Objective < 0 {
					t.Fatalf("damp=%v gamma=%g: negative objective", damp, gamma)
				}
			}
		}
	}
}

func TestMROptionMatrix(t *testing.T) {
	p := smallSynthetic(t, 79)
	ref := p.KlauAlign(core.MROptions{Iterations: 8})
	for _, threads := range []int{1, 3} {
		for _, greedyRows := range []bool{false, true} {
			name := fmt.Sprintf("threads=%d/greedyRows=%v", threads, greedyRows)
			r := p.KlauAlign(core.MROptions{
				Iterations: 8, Threads: threads,
				GreedyRowMatch: greedyRows, Chunk: 16,
			})
			if err := r.Matching.Validate(p.L); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !greedyRows && math.Abs(r.Objective-ref.Objective) > 1e-9 {
				t.Fatalf("%s: objective %g != reference %g", name, r.Objective, ref.Objective)
			}
		}
	}
}

func TestReportConservedSubgraph(t *testing.T) {
	p := smallSynthetic(t, 83)
	res := p.BPAlign(core.BPOptions{Iterations: 20})
	rep := p.NewReport(res.Matching, nil, 1)
	sub := rep.ConservedSubgraph(p)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != p.A.NumVertices() {
		t.Fatalf("conserved subgraph has %d vertices", sub.NumVertices())
	}
	if sub.NumEdges() != int(rep.Overlap) {
		t.Fatalf("conserved subgraph %d edges != overlap %g", sub.NumEdges(), rep.Overlap)
	}
	// Every conserved edge must exist in A.
	for _, e := range sub.Edges() {
		if !p.A.HasEdge(e.U, e.V) {
			t.Fatalf("conserved edge %+v not in A", e)
		}
	}
}
