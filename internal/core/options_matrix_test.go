package core_test

// Table-driven interaction test: every combination of the main BP and
// MR option axes must produce a valid matching, and with deterministic
// (exact) rounding the objective must be identical across the purely
// scheduling axes (threads, batch). A second run of the
// same options must reproduce the first bit for bit, serialized
// checkpoints included.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
	"netalignmc/internal/problemio"
)

// checkpointBytes installs a collector that serializes every
// checkpoint through the problemio writer, so the collected bytes
// cover the full on-disk form.
func checkpointBytes(fn *func(*core.Checkpoint) error) *[][]byte {
	var cks [][]byte
	*fn = func(c *core.Checkpoint) error {
		var buf bytes.Buffer
		if err := problemio.WriteCheckpoint(&buf, c); err != nil {
			return err
		}
		cks = append(cks, buf.Bytes())
		return nil
	}
	return &cks
}

// sameRun asserts two runs of the same options agree bitwise on the
// objective, the alignment, the evaluation count and every checkpoint.
func sameRun(t *testing.T, name string, a, b *core.AlignResult, aCks, bCks [][]byte) {
	t.Helper()
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		a.Evaluations != b.Evaluations || a.BestIter != b.BestIter {
		t.Fatalf("%s: rerun gave objective %v (%d evals, best %d), first run %v (%d evals, best %d)",
			name, b.Objective, b.Evaluations, b.BestIter, a.Objective, a.Evaluations, a.BestIter)
	}
	for i := range a.Matching.MateA {
		if a.Matching.MateA[i] != b.Matching.MateA[i] {
			t.Fatalf("%s: rerun mateA[%d] = %d, first run %d", name, i, b.Matching.MateA[i], a.Matching.MateA[i])
		}
	}
	if len(aCks) == 0 || len(aCks) != len(bCks) {
		t.Fatalf("%s: rerun wrote %d checkpoints, first run %d", name, len(bCks), len(aCks))
	}
	for i := range aCks {
		if !bytes.Equal(aCks[i], bCks[i]) {
			t.Fatalf("%s: checkpoint %d bytes differ between runs", name, i)
		}
	}
}

func TestBPOptionMatrix(t *testing.T) {
	p := smallSynthetic(t, 71)
	ref := p.BPAlign(core.BPOptions{Iterations: 10})
	for _, batch := range []int{1, 7, 20} {
		for _, threads := range []int{1, 3} {
			name := fmt.Sprintf("batch=%d/threads=%d", batch, threads)
			run := func() (*core.AlignResult, [][]byte) {
				o := core.BPOptions{
					Iterations: 10, Batch: batch, Threads: threads,
					Chunk: 16, CheckpointEvery: 4,
				}
				cks := checkpointBytes(&o.CheckpointFunc)
				return p.BPAlign(o), *cks
			}
			r, rCks := run()
			if err := r.Matching.Validate(p.L); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Abs(r.Objective-ref.Objective) > 1e-9 {
				t.Fatalf("%s: objective %g != reference %g (scheduling axes must not change results)",
					name, r.Objective, ref.Objective)
			}
			again, againCks := run()
			sameRun(t, name, r, again, rCks, againCks)
		}
	}
}

func TestBPDampingMatrix(t *testing.T) {
	p := smallSynthetic(t, 73)
	for _, damp := range []core.Damping{core.DampPower, core.DampConstant, core.DampNone} {
		for _, gamma := range []float64{0.5, 0.9, 0.99} {
			for _, spec := range []matching.MatcherSpec{{}, {Name: "approx"}} {
				r := p.BPAlign(core.BPOptions{
					Iterations: 8, Damp: damp, Gamma: gamma, Matcher: spec,
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
			run := func() (*core.AlignResult, [][]byte) {
				o := core.MROptions{
					Iterations: 8, Threads: threads,
					GreedyRowMatch: greedyRows, Chunk: 16, CheckpointEvery: 4,
				}
				cks := checkpointBytes(&o.CheckpointFunc)
				return p.KlauAlign(o), *cks
			}
			r, rCks := run()
			if err := r.Matching.Validate(p.L); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !greedyRows && math.Abs(r.Objective-ref.Objective) > 1e-9 {
				t.Fatalf("%s: objective %g != reference %g", name, r.Objective, ref.Objective)
			}
			again, againCks := run()
			sameRun(t, name, r, again, rCks, againCks)
		}
	}
}
