package netalignmc_test

// End-to-end integration test: generate a problem, write and re-read
// it in both file formats, align with both methods and both matchers,
// write and re-read the matching, and verify the report — the whole
// user-visible pipeline in one pass.

import (
	"bytes"
	"math"
	"testing"

	netalignmc "netalignmc"
)

func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate.
	o := netalignmc.DefaultSynthetic(4, 123)
	o.N = 60
	p, err := netalignmc.NewSyntheticProblem(o)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Round-trip through the netalign format.
	var buf bytes.Buffer
	if err := netalignmc.WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := netalignmc.ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Round-trip through SMAT.
	var a, b, l bytes.Buffer
	if err := netalignmc.WriteGraphSMAT(&a, p2.A); err != nil {
		t.Fatal(err)
	}
	if err := netalignmc.WriteGraphSMAT(&b, p2.B); err != nil {
		t.Fatal(err)
	}
	if err := netalignmc.WriteCandidateSMAT(&l, p2.L); err != nil {
		t.Fatal(err)
	}
	p3, err := netalignmc.ReadSMATProblem(&a, &b, &l, p2.Alpha, p2.Beta)
	if err != nil {
		t.Fatal(err)
	}
	if p3.NNZS() != p.NNZS() {
		t.Fatalf("format round trips changed nnz(S): %d vs %d", p3.NNZS(), p.NNZS())
	}

	// 4. Align four ways; all must produce valid matchings and agree
	// on the rough solution quality for this easy planted instance.
	results := map[string]*netalignmc.AlignResult{
		"bp-exact":  p3.BPAlign(netalignmc.BPOptions{Iterations: 30}),
		"bp-approx": p3.BPAlign(netalignmc.BPOptions{Iterations: 30, Matcher: netalignmc.MatcherSpec{Name: "approx"}, Batch: 10}),
		"mr-exact":  p3.KlauAlign(netalignmc.MROptions{Iterations: 30}),
		"mr-approx": p3.KlauAlign(netalignmc.MROptions{Iterations: 30, Matcher: netalignmc.MatcherSpec{Name: "approx"}}),
	}
	idObj := p3.Objective(p3.IdentityIndicator(), 0)
	for name, r := range results {
		if err := r.Matching.Validate(p3.L); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Objective < 0.75*idObj {
			t.Fatalf("%s: objective %g below 75%% of identity %g", name, r.Objective, idObj)
		}
	}

	// 5. Matching round-trip and report.
	best := results["bp-approx"]
	var mbuf bytes.Buffer
	if err := netalignmc.WriteMatching(&mbuf, best.Matching); err != nil {
		t.Fatal(err)
	}
	loaded, err := netalignmc.ReadMatching(&mbuf, p3.L)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Card != best.Matching.Card || math.Abs(loaded.Weight-best.Matching.Weight) > 1e-9 {
		t.Fatal("matching round trip mismatch")
	}
	rep := p3.NewReport(loaded, nil, 0)
	if math.Abs(rep.Objective-best.Objective) > 1e-9 {
		t.Fatalf("report objective %g != %g", rep.Objective, best.Objective)
	}

	// 6. Steering: remove a candidate, verify, re-solve.
	if e, ok := p3.L.Find(0, 0); ok {
		p4, err := p3.RemoveCandidates([]int{e}, 0)
		if err != nil {
			t.Fatal(err)
		}
		again := p4.BPAlign(netalignmc.BPOptions{Iterations: 10})
		if err := again.Matching.Validate(p4.L); err != nil {
			t.Fatal(err)
		}
	}

	// 7. Traffic model sanity on the final problem.
	tm := netalignmc.NewTrafficModel(p3, 20)
	if tm.DampingShare() <= 0 {
		t.Fatal("traffic model degenerate")
	}
}
