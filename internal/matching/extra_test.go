package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netalignmc/internal/bipartite"
)

// --- Suitor ---

func TestSuitorSimple(t *testing.T) {
	g := mustGraph(t, 2, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 0, B: 1, W: 2}, {A: 1, B: 0, W: 3},
	})
	r := Suitor(g, 2)
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r.Weight != 5 || r.Card != 2 {
		t.Fatalf("Suitor weight=%g card=%d, want 5,2", r.Weight, r.Card)
	}
}

func TestSuitorDethroning(t *testing.T) {
	// a0 proposes b0 (8); a1 proposes b0 (10), dethroning a0, which
	// re-proposes to b1 (7).
	g := mustGraph(t, 2, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 8}, {A: 0, B: 1, W: 7}, {A: 1, B: 0, W: 10},
	})
	r := Suitor(g, 1)
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r.MateA[0] != 1 || r.MateA[1] != 0 || r.Weight != 17 {
		t.Fatalf("Suitor mates %v weight %g", r.MateA, r.Weight)
	}
}

func TestSuitorMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, rng.Intn(15)+2, rng.Intn(15)+2, 0.35)
		gr := Greedy(g, 1)
		for _, threads := range []int{1, 4} {
			s := Suitor(g, threads)
			if err := s.Validate(g); err != nil {
				t.Fatal(err)
			}
			if math.Abs(s.Weight-gr.Weight) > 1e-9 {
				t.Fatalf("trial %d threads %d: suitor %g != greedy %g", trial, threads, s.Weight, gr.Weight)
			}
		}
	}
}

func TestQuickSuitorGuarantees(t *testing.T) {
	f := func(seed int64, naRaw, nbRaw, thrRaw uint8) bool {
		na := int(naRaw)%9 + 1
		nb := int(nbRaw)%9 + 1
		threads := int(thrRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, na, nb, 0.45)
		r := Suitor(g, threads)
		if r.Validate(g) != nil || !r.IsMaximal(g) {
			return false
		}
		return r.Weight >= Brute(g)/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// --- Auction ---

func TestAuctionNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, rng.Intn(7)+1, rng.Intn(7)+1, 0.5)
		eps := 1e-6
		r := Auction(g, 1, eps)
		if err := r.Validate(g); err != nil {
			t.Fatal(err)
		}
		opt := Brute(g)
		slack := float64(g.NA)*eps + 1e-9
		if r.Weight < opt-slack {
			t.Fatalf("trial %d: auction %g below opt %g - n·eps", trial, r.Weight, opt)
		}
	}
}

func TestAuctionDropsNegativeEdges(t *testing.T) {
	g := mustGraph(t, 2, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 4}, {A: 1, B: 1, W: -2},
	})
	r := Auction(g, 1, 1e-6)
	if r.Card != 1 || r.MateA[1] != -1 {
		t.Fatalf("auction matched a negative edge: %+v", r)
	}
}

func TestAuctionEmptyAndDefaultEps(t *testing.T) {
	g := mustGraph(t, 3, 3, nil)
	r := Auction(g, 1, 0)
	if r.Card != 0 {
		t.Fatal("empty graph matched")
	}
	m := NewAuctionMatcher(1e-4)
	g2 := mustGraph(t, 1, 1, []bipartite.WeightedEdge{{A: 0, B: 0, W: 2}})
	if got := m(g2, 1); got.Card != 1 {
		t.Fatal("auction matcher missed the only edge")
	}
}

// --- PathGrowing ---

func TestPathGrowingHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, rng.Intn(8)+1, rng.Intn(8)+1, 0.4)
		r := PathGrowing(g, 1)
		if err := r.Validate(g); err != nil {
			t.Fatal(err)
		}
		opt := Brute(g)
		if r.Weight < opt/2-1e-9 {
			t.Fatalf("trial %d: path growing %g below half of %g", trial, r.Weight, opt)
		}
	}
}

func TestPathGrowingPath(t *testing.T) {
	// A path a0-b0-a1-b1 with weights 1, 10, 1: M1={1,1}=2, M2={10};
	// the heavier is M2 with the middle edge.
	g := mustGraph(t, 2, 2, []bipartite.WeightedEdge{
		{A: 0, B: 0, W: 1}, {A: 1, B: 0, W: 10}, {A: 1, B: 1, W: 1},
	})
	r := PathGrowing(g, 1)
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if r.Weight < 10 {
		t.Fatalf("path growing picked weight %g, want ≥ 10", r.Weight)
	}
}

// --- cross-matcher consistency ---

func TestAllMatchersAgreeOnDistinctWeights(t *testing.T) {
	// With distinct weights, greedy, locally-dominant and suitor all
	// compute the same matching weight; exact and auction dominate it.
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, rng.Intn(10)+2, rng.Intn(10)+2, 0.4)
		gr := Greedy(g, 1).Weight
		ld := LocallyDominant(g, 3, LocallyDominantOptions{}).Weight
		su := Suitor(g, 3).Weight
		ex := Exact(g, 1).Weight
		au := Auction(g, 1, 1e-9).Weight
		if math.Abs(gr-ld) > 1e-9 || math.Abs(gr-su) > 1e-9 {
			t.Fatalf("trial %d: greedy %g, LD %g, suitor %g disagree", trial, gr, ld, su)
		}
		if ex < gr-1e-9 || au < gr/1.0-ex*1e-9-1e-6 && au < gr-1e-6 {
			t.Fatalf("trial %d: exact %g or auction %g below greedy %g", trial, ex, au, gr)
		}
		if au > ex+1e-6 {
			t.Fatalf("trial %d: auction %g exceeds exact %g", trial, au, ex)
		}
	}
}

func BenchmarkSuitor(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 500, 500, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Suitor(g, 0)
	}
}

func BenchmarkAuction(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 500, 500, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Auction(g, 1, 1e-4)
	}
}
