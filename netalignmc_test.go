package netalignmc_test

import (
	"bytes"
	"math"
	"testing"

	netalignmc "netalignmc"
)

// buildTinyProblem assembles the 2x2 identity problem through the
// public API only, exercising every construction entry point.
func buildTinyProblem(t testing.TB) *netalignmc.Problem {
	t.Helper()
	ab := netalignmc.NewGraphBuilder(2)
	ab.AddEdge(0, 1)
	a := ab.Build()
	b := netalignmc.GraphFromEdges(2, []netalignmc.GraphEdge{{U: 0, V: 1}})
	l, err := netalignmc.NewCandidateGraph(2, 2, []netalignmc.CandidateEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 1}, {A: 1, B: 0, W: 1}, {A: 1, B: 1, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := netalignmc.NewProblem(a, b, l, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublicAPIQuickstart(t *testing.T) {
	p := buildTinyProblem(t)
	res := p.BPAlign(netalignmc.BPOptions{Iterations: 10, Matcher: netalignmc.MatcherSpec{Name: "approx"}})
	if err := res.Matching.Validate(p.L); err != nil {
		t.Fatal(err)
	}
	// Either perfect matching of the K2s gives objective 4.
	if res.Objective != 4 {
		t.Fatalf("objective = %g, want 4", res.Objective)
	}
}

func TestPublicAPIMatchers(t *testing.T) {
	p := buildTinyProblem(t)
	for name, m := range map[string]netalignmc.Matcher{
		"exact":  netalignmc.ExactMatcher,
		"approx": netalignmc.ApproxMatcher,
		"greedy": netalignmc.GreedyMatcher,
		"custom": netalignmc.NewLocallyDominantMatcher(netalignmc.LocallyDominantOptions{OneSidedInit: false}),
	} {
		r := m(p.L, 1)
		if err := r.Validate(p.L); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Card != 2 {
			t.Fatalf("%s: matched %d edges, want 2", name, r.Card)
		}
	}
}

func TestPublicAPISynthetic(t *testing.T) {
	o := netalignmc.DefaultSynthetic(3, 5)
	o.N = 50
	p, err := netalignmc.NewSyntheticProblem(o)
	if err != nil {
		t.Fatal(err)
	}
	res := p.KlauAlign(netalignmc.MROptions{Iterations: 15})
	if frac := netalignmc.CorrectMatchFraction(res.Matching); frac < 0.5 {
		t.Fatalf("recovered only %.2f of planted alignment", frac)
	}
}

func TestPublicAPIStandInAndStats(t *testing.T) {
	p, err := netalignmc.DmelaScere(0.01, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := netalignmc.StatsOf("dmela-scere", p)
	if st.VA < 2 || st.EL == 0 {
		t.Fatalf("stats %+v", st)
	}
	q, err := netalignmc.NewStandInProblem(netalignmc.StandInOptions{
		Name: "custom", NA: 60, NB: 50, LDegree: 3, Gamma: 2.1,
		MinDeg: 1, MaxDeg: 10, OverlapFraction: 0.5, Alpha: 1, Beta: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.A.NumVertices() != 60 {
		t.Fatal("custom stand-in wrong size")
	}
}

func TestPublicAPIProblemIO(t *testing.T) {
	p := buildTinyProblem(t)
	var buf bytes.Buffer
	if err := netalignmc.WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := netalignmc.ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.L.NumEdges() != p.L.NumEdges() || q.NNZS() != p.NNZS() {
		t.Fatal("round trip mismatch")
	}
}

func TestPublicAPITimer(t *testing.T) {
	p := buildTinyProblem(t)
	timer := netalignmc.NewStepTimer()
	p.BPAlign(netalignmc.BPOptions{Iterations: 3, Timer: timer})
	if timer.GrandTotal() <= 0 {
		t.Fatal("timer recorded nothing")
	}
}

func TestPublicAPINewMatchers(t *testing.T) {
	p := buildTinyProblem(t)
	for name, m := range map[string]netalignmc.Matcher{
		"suitor":       netalignmc.SuitorMatcher,
		"path-growing": netalignmc.PathGrowingMatcher,
		"auction":      netalignmc.NewAuctionMatcher(1e-9),
	} {
		r := m(p.L, 1)
		if err := r.Validate(p.L); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Card != 2 {
			t.Fatalf("%s matched %d edges", name, r.Card)
		}
	}
}

func TestPublicAPISMAT(t *testing.T) {
	p := buildTinyProblem(t)
	var a, b, l bytes.Buffer
	if err := netalignmc.WriteGraphSMAT(&a, p.A); err != nil {
		t.Fatal(err)
	}
	if err := netalignmc.WriteGraphSMAT(&b, p.B); err != nil {
		t.Fatal(err)
	}
	if err := netalignmc.WriteCandidateSMAT(&l, p.L); err != nil {
		t.Fatal(err)
	}
	q, err := netalignmc.ReadSMATProblem(&a, &b, &l, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.NNZS() != p.NNZS() || q.L.NumEdges() != p.L.NumEdges() {
		t.Fatal("SMAT round trip mismatch")
	}
}

func TestPublicAPIBaselineAndSteering(t *testing.T) {
	o := netalignmc.DefaultSynthetic(4, 21)
	o.N = 40
	p, err := netalignmc.NewSyntheticProblem(o)
	if err != nil {
		t.Fatal(err)
	}
	base := p.BaselineAlign(netalignmc.BaselineOptions{Kind: netalignmc.BaselineIsoRank})
	if base.Objective <= 0 {
		t.Fatal("baseline failed")
	}
	res := p.BPAlign(netalignmc.BPOptions{Iterations: 10, Damp: netalignmc.DampConstant, Gamma: 0.9})
	rep := p.NewReport(res.Matching, nil, 1)
	if rep.Card != res.Matching.Card {
		t.Fatal("report inconsistent")
	}
	if e, ok := p.L.Find(0, 0); ok {
		p2, err := p.RemoveCandidates([]int{e}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p2.L.NumEdges() != p.L.NumEdges()-1 {
			t.Fatal("steering removal failed")
		}
	}
}

func TestPublicAPIObjectiveConsistency(t *testing.T) {
	o := netalignmc.DefaultSynthetic(4, 11)
	o.N = 40
	p, err := netalignmc.NewSyntheticProblem(o)
	if err != nil {
		t.Fatal(err)
	}
	res := p.BPAlign(netalignmc.BPOptions{Iterations: 8})
	if math.Abs(res.Objective-(p.Alpha*res.MatchWeight+p.Beta*res.Overlap)) > 1e-9 {
		t.Fatal("objective decomposition inconsistent")
	}
}
