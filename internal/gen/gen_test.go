package gen

import (
	"math"
	"testing"

	"netalignmc/internal/core"
)

func TestSyntheticBasics(t *testing.T) {
	o := DefaultSynthetic(4, 123)
	o.N = 80
	p, err := Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	if p.A.NumVertices() != 80 || p.B.NumVertices() != 80 {
		t.Fatalf("sides %d,%d", p.A.NumVertices(), p.B.NumVertices())
	}
	if p.Alpha != 1 || p.Beta != 2 {
		t.Fatalf("objective weights %g,%g", p.Alpha, p.Beta)
	}
	// L contains the full identity matching.
	for v := 0; v < 80; v++ {
		if !p.L.HasEdge(v, v) {
			t.Fatalf("identity edge (%d,%d) missing from L", v, v)
		}
	}
	// Expected |E_L| ≈ N (identity) + 2 * N(N-1)/2 * d̄/N ≈ N + N·d̄.
	want := float64(80 + 80*4)
	got := float64(p.L.NumEdges())
	if got < want*0.6 || got > want*1.4 {
		t.Fatalf("|E_L| = %g, expected ≈ %g", got, want)
	}
	// The perturbed graphs keep the planted overlap: identity
	// indicator must overlap many edge pairs.
	if ov := p.Overlap(p.IdentityIndicator(), 1); ov < 10 {
		t.Fatalf("planted identity overlap only %g", ov)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	o := DefaultSynthetic(3, 9)
	o.N = 50
	p1, err := Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	if p1.L.NumEdges() != p2.L.NumEdges() || p1.NNZS() != p2.NNZS() {
		t.Fatalf("same seed differs: EL %d/%d nnzS %d/%d",
			p1.L.NumEdges(), p2.L.NumEdges(), p1.NNZS(), p2.NNZS())
	}
	o2 := o
	o2.Seed = 10
	p3, err := Synthetic(o2)
	if err != nil {
		t.Fatal(err)
	}
	if p3.L.NumEdges() == p1.L.NumEdges() && p3.NNZS() == p1.NNZS() &&
		p3.A.NumEdges() == p1.A.NumEdges() && p3.B.NumEdges() == p1.B.NumEdges() {
		t.Fatal("different seeds produced identical problems (statistically implausible)")
	}
}

func TestSyntheticZeroNoise(t *testing.T) {
	o := DefaultSynthetic(0, 5)
	o.N = 40
	p, err := Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	// With d̄=0, L is exactly the identity.
	if p.L.NumEdges() != 40 {
		t.Fatalf("|E_L| = %d, want 40", p.L.NumEdges())
	}
}

func TestSyntheticErrors(t *testing.T) {
	o := DefaultSynthetic(2, 1)
	o.N = 1
	if _, err := Synthetic(o); err == nil {
		t.Fatal("N=1 accepted")
	}
}

func TestStandInShape(t *testing.T) {
	p, err := StandIn(StandInOptions{
		Name: "test", NA: 120, NB: 90, LDegree: 5,
		Gamma: 2.1, MinDeg: 1, MaxDeg: 20, OverlapFraction: 0.5,
		Alpha: 1, Beta: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.A.NumVertices() != 120 || p.B.NumVertices() != 90 {
		t.Fatalf("sides %d,%d", p.A.NumVertices(), p.B.NumVertices())
	}
	// "The degree distribution in L is fairly regular": every A-vertex
	// has at least one and at most LDegree candidates.
	for a := 0; a < 120; a++ {
		d := p.L.DegreeA(a)
		if d < 1 || d > 5 {
			t.Fatalf("L degree of %d is %d, want in [1,5]", a, d)
		}
	}
	if p.NNZS() == 0 {
		t.Fatal("stand-in has no overlap structure at all")
	}
}

func TestStandInSImbalance(t *testing.T) {
	// "the non-zero distribution in S is highly irregular": max row
	// size should far exceed the mean.
	p, err := StandIn(StandInOptions{
		Name: "imb", NA: 300, NB: 300, LDegree: 4,
		Gamma: 2.0, MinDeg: 1, MaxDeg: 40, OverlapFraction: 0.6,
		Alpha: 1, Beta: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	maxRow, total := 0, 0
	for r := 0; r < p.S.Rows(); r++ {
		lo, hi := p.S.RowRange(r)
		if hi-lo > maxRow {
			maxRow = hi - lo
		}
		total += hi - lo
	}
	mean := float64(total) / float64(p.S.Rows())
	if float64(maxRow) < 3*mean {
		t.Fatalf("S rows look balanced: max %d vs mean %.2f", maxRow, mean)
	}
}

func TestStandInErrors(t *testing.T) {
	if _, err := StandIn(StandInOptions{NA: 1, NB: 10}); err == nil {
		t.Fatal("degenerate sides accepted")
	}
}

func TestNamedStandInsSmallScale(t *testing.T) {
	builders := []struct {
		name  string
		build func(float64, int64, int) (*core.Problem, error)
	}{
		{"dmela-scere", DmelaScere},
		{"homo-musm", HomoMusm},
		{"lcsh-wiki", LcshWiki},
		{"lcsh-rameau", LcshRameau},
	}
	for _, b := range builders {
		p, err := b.build(0.02, 5, 2)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		st := core.ProblemStats(b.name, p)
		if st.VA < 2 || st.VB < 2 || st.EL == 0 {
			t.Fatalf("%s: degenerate stats %+v", b.name, st)
		}
	}
}

func TestScaledClamping(t *testing.T) {
	o := scaled(StandInOptions{NA: 1000, NB: 800, LDegree: 20}, 0.01)
	if o.NA != 10 || o.NB != 8 {
		t.Fatalf("scaled sizes %d,%d", o.NA, o.NB)
	}
	if o.LDegree > 8 {
		t.Fatalf("LDegree %d not clamped for tiny sides", o.LDegree)
	}
	o2 := scaled(StandInOptions{NA: 100, NB: 100}, -1)
	if o2.NA != 100 {
		t.Fatal("invalid scale should mean full size")
	}
}

func TestSyntheticQualitySignal(t *testing.T) {
	// The planted alignment must dominate random matchings: its
	// objective should exceed the all-zero and be within reach of the
	// methods (sanity for the Figure 2 harness).
	o := DefaultSynthetic(6, 21)
	o.N = 60
	o.MaxDeg = 12
	p, err := Synthetic(o)
	if err != nil {
		t.Fatal(err)
	}
	idObj := p.Objective(p.IdentityIndicator(), 1)
	if idObj <= 0 {
		t.Fatalf("identity objective %g", idObj)
	}
	if math.IsNaN(idObj) || math.IsInf(idObj, 0) {
		t.Fatal("identity objective not finite")
	}
}
