// Package gen constructs network alignment problem instances: the
// paper's synthetic power-law problems (Section VI-A) and synthetic
// stand-ins for its bioinformatics and ontology datasets (Section
// VI-B/C), which are not redistributable. See DESIGN.md §4 for the
// substitution rationale: the stand-ins preserve the structural
// properties the algorithms are sensitive to — power-law topology, a
// planted common subgraph, fairly regular degree in L, and a highly
// irregular nonzero distribution in S.
package gen

import (
	"fmt"
	"math/rand"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/graph"
)

// SyntheticOptions parameterizes the paper's synthetic power-law
// construction: start from one power-law graph G, perturb it twice
// independently into A and B (adding edges with probability
// PerturbProb), and build L from the identity matching plus uniformly
// random candidate edges with expected degree ExpectedDegree
// (d̄ = p·|V_A|).
type SyntheticOptions struct {
	// N is the number of vertices of the base graph G (paper: 400).
	N int
	// Gamma is the power-law exponent of the degree distribution.
	Gamma float64
	// MinDeg, MaxDeg truncate the degree distribution.
	MinDeg, MaxDeg int
	// PerturbProb is the probability of adding each non-edge when
	// deriving A and B from G (paper: 0.02).
	PerturbProb float64
	// ExpectedDegree is d̄, the expected number of random candidate
	// edges per vertex in L (paper sweeps 2..20 in Figure 2).
	ExpectedDegree float64
	// IdentityWeight and NoiseWeight are the L edge weights for
	// planted identity edges and random edges.
	IdentityWeight, NoiseWeight float64
	// Alpha, Beta are the objective weights (paper: α=1, β=2).
	Alpha, Beta float64
	// Seed drives all randomness.
	Seed int64
	// Threads bounds parallelism of S construction (<=0: GOMAXPROCS).
	Threads int
}

// DefaultSynthetic returns the paper's Figure 2 configuration for a
// given expected degree and seed.
func DefaultSynthetic(expectedDegree float64, seed int64) SyntheticOptions {
	return SyntheticOptions{
		N:              400,
		Gamma:          2.1,
		MinDeg:         1,
		MaxDeg:         30,
		PerturbProb:    0.02,
		ExpectedDegree: expectedDegree,
		IdentityWeight: 1,
		NoiseWeight:    1,
		Alpha:          1,
		Beta:           2,
		Seed:           seed,
	}
}

// FigPresetNames lists the Figure 4-7 scaling presets in paper order.
func FigPresetNames() []string {
	return []string{"fig4", "fig5", "fig6", "fig7"}
}

// FigPreset returns the synthetic configuration for one of the paper's
// Figure 4-7 scaling measurements: the Figure 2 power-law recipe at
// the sizes where the matching barrier dominates, so the rounding
// step can be measured at scale. fig4 and fig5 are the medium and
// large dense-candidate problems (d̄=8), fig6 is the denser d̄=10
// variant, fig7 the largest sparse-candidate (d̄=2) one.
func FigPreset(name string, seed int64) (SyntheticOptions, error) {
	var (
		n    int
		dbar float64
	)
	switch name {
	case "fig4":
		n, dbar = 8192, 8
	case "fig5":
		n, dbar = 16384, 8
	case "fig6":
		n, dbar = 16384, 10
	case "fig7":
		n, dbar = 32768, 2
	default:
		return SyntheticOptions{}, fmt.Errorf("gen: unknown fig preset %q (want one of %v)", name, FigPresetNames())
	}
	so := DefaultSynthetic(dbar, seed)
	so.N = n
	return so, nil
}

// Synthetic builds a synthetic power-law alignment problem following
// Section VI-A: G ~ power law on N vertices; A and B are independent
// edge-added perturbations of G; L contains the identity matching
// (the known reference alignment) plus every other pair independently
// with probability d̄/N.
func Synthetic(o SyntheticOptions) (*core.Problem, error) {
	if o.N <= 1 {
		return nil, fmt.Errorf("gen: need at least 2 vertices, got %d", o.N)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	g := graph.PowerLaw(rng, o.N, o.Gamma, o.MinDeg, o.MaxDeg)
	a := graph.Perturb(rng, g, o.PerturbProb)
	b := graph.Perturb(rng, g, o.PerturbProb)

	edges := make([]bipartite.WeightedEdge, 0, o.N*int(o.ExpectedDegree+2))
	for v := 0; v < o.N; v++ {
		edges = append(edges, bipartite.WeightedEdge{A: v, B: v, W: o.IdentityWeight})
	}
	p := o.ExpectedDegree / float64(o.N)
	if p > 0 {
		// Sample all non-identity pairs with probability p using the
		// same geometric skipping as the graph generators.
		noise := graph.ErdosRenyi(rng, o.N, p)
		for _, e := range noise.Edges() {
			// Interpret the undirected pair as two directed candidate
			// links to diversify both directions.
			edges = append(edges, bipartite.WeightedEdge{A: e.U, B: e.V, W: o.NoiseWeight})
			edges = append(edges, bipartite.WeightedEdge{A: e.V, B: e.U, W: o.NoiseWeight})
		}
	}
	l, err := bipartite.New(o.N, o.N, edges)
	if err != nil {
		return nil, fmt.Errorf("gen: building L: %w", err)
	}
	return core.NewProblem(a, b, l, o.Alpha, o.Beta, o.Threads)
}

// StandInOptions parameterizes a real-dataset stand-in: two power-law
// graphs of different sizes sharing a planted common subgraph, and an
// L whose candidate lists have fairly regular degree, as the paper
// observes for its bio and ontology inputs.
type StandInOptions struct {
	Name string
	// NA, NB are the vertex counts of A and B.
	NA, NB int
	// LDegree is the expected number of candidate links per A-vertex
	// (regular by construction).
	LDegree int
	// Gamma, MinDeg, MaxDeg shape both power-law graphs.
	Gamma          float64
	MinDeg, MaxDeg int
	// OverlapFraction is the fraction of the smaller side planted as a
	// true common subgraph (drives the nnz(S) density).
	OverlapFraction float64
	// Alpha, Beta are objective weights.
	Alpha, Beta float64
	Seed        int64
	Threads     int
}

// StandIn builds a bio/ontology-like problem. The planted construction:
//
//  1. Generate a power-law "core" graph on n0 = OverlapFraction·min(NA,NB)
//     vertices.
//  2. Embed it at random vertex positions of both A and B, then grow A
//     and B to full size with additional power-law edges.
//  3. L links each A-vertex to its true counterpart (when it has one)
//     with a high weight plus LDegree−1 random candidates with lower
//     weights, giving the "fairly regular" degree distribution in L
//     and an imbalanced S.
func StandIn(o StandInOptions) (*core.Problem, error) {
	if o.NA <= 1 || o.NB <= 1 {
		return nil, fmt.Errorf("gen: stand-in needs both sides > 1")
	}
	if o.LDegree < 1 {
		o.LDegree = 1
	}
	rng := rand.New(rand.NewSource(o.Seed))
	minN := o.NA
	if o.NB < minN {
		minN = o.NB
	}
	n0 := int(o.OverlapFraction * float64(minN))
	if n0 < 2 {
		n0 = 2
	}
	coreG := graph.PowerLaw(rng, n0, o.Gamma, o.MinDeg, o.MaxDeg)

	embedA := graph.RandomPermutation(rng, o.NA)[:n0]
	embedB := graph.RandomPermutation(rng, o.NB)[:n0]

	buildSide := func(n int, embed []int) *graph.Graph {
		b := graph.NewBuilder(n)
		for _, e := range coreG.Edges() {
			b.AddEdge(embed[e.U], embed[e.V])
		}
		extra := graph.PowerLaw(rng, n, o.Gamma, o.MinDeg, o.MaxDeg)
		for _, e := range extra.Edges() {
			b.AddEdge(e.U, e.V)
		}
		return b.Build()
	}
	a := buildSide(o.NA, embedA)
	b := buildSide(o.NB, embedB)

	truth := make(map[int]int, n0) // A-vertex -> true B counterpart
	for i := 0; i < n0; i++ {
		truth[embedA[i]] = embedB[i]
	}
	edges := make([]bipartite.WeightedEdge, 0, o.NA*o.LDegree)
	for va := 0; va < o.NA; va++ {
		if vb, ok := truth[va]; ok {
			edges = append(edges, bipartite.WeightedEdge{A: va, B: vb, W: 0.8 + 0.2*rng.Float64()})
		}
		for k := 0; k < o.LDegree-1; k++ {
			vb := rng.Intn(o.NB)
			edges = append(edges, bipartite.WeightedEdge{A: va, B: vb, W: 0.1 + 0.6*rng.Float64()})
		}
	}
	l, err := bipartite.New(o.NA, o.NB, edges)
	if err != nil {
		return nil, fmt.Errorf("gen: building L: %w", err)
	}
	return core.NewProblem(a, b, l, o.Alpha, o.Beta, o.Threads)
}

// The named stand-ins mirror the paper's Table II problems at a Scale
// in (0, 1]: Scale=1 approximates the published sizes; smaller scales
// keep the structural shape at laptop-size. All use α=1, β=2, the
// parameters of the paper's quality and scaling studies.

// DmelaScere builds the D. melanogaster / S. cerevisiae PPI stand-in
// (Table II: |V_A|=9459, |V_B|=5696, |E_L|=34582).
func DmelaScere(scale float64, seed int64, threads int) (*core.Problem, error) {
	return StandIn(scaled(StandInOptions{
		Name: "dmela-scere", NA: 9459, NB: 5696, LDegree: 4,
		Gamma: 2.2, MinDeg: 1, MaxDeg: 60, OverlapFraction: 0.5,
		Alpha: 1, Beta: 2, Seed: seed, Threads: threads,
	}, scale))
}

// HomoMusm builds the H. sapiens / M. musculus PPI stand-in
// (Table II: |V_A|=3247, |V_B|=9695, |E_L|=15810).
func HomoMusm(scale float64, seed int64, threads int) (*core.Problem, error) {
	return StandIn(scaled(StandInOptions{
		Name: "homo-musm", NA: 3247, NB: 9695, LDegree: 5,
		Gamma: 2.2, MinDeg: 1, MaxDeg: 60, OverlapFraction: 0.7,
		Alpha: 1, Beta: 2, Seed: seed, Threads: threads,
	}, scale))
}

// LcshWiki builds the Library of Congress / Wikipedia ontology
// stand-in (Table II: |V_A|=297266, |V_B|=205948, |E_L|=4971629).
func LcshWiki(scale float64, seed int64, threads int) (*core.Problem, error) {
	return StandIn(scaled(StandInOptions{
		Name: "lcsh-wiki", NA: 297266, NB: 205948, LDegree: 17,
		Gamma: 2.0, MinDeg: 1, MaxDeg: 200, OverlapFraction: 0.6,
		Alpha: 1, Beta: 2, Seed: seed, Threads: threads,
	}, scale))
}

// LcshRameau builds the Library of Congress / Rameau ontology stand-in
// (Table II: |V_A|=154974, |V_B|=342684, |E_L|=20883500).
func LcshRameau(scale float64, seed int64, threads int) (*core.Problem, error) {
	return StandIn(scaled(StandInOptions{
		Name: "lcsh-rameau", NA: 154974, NB: 342684, LDegree: 61,
		Gamma: 2.0, MinDeg: 1, MaxDeg: 200, OverlapFraction: 0.4,
		Alpha: 1, Beta: 2, Seed: seed, Threads: threads,
	}, scale))
}

func scaled(o StandInOptions, scale float64) StandInOptions {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	o.NA = max(2, int(float64(o.NA)*scale))
	o.NB = max(2, int(float64(o.NB)*scale))
	if o.NA < 50 || o.NB < 50 {
		// Very small scales cannot sustain the full candidate degree.
		if o.LDegree > 8 {
			o.LDegree = 8
		}
	}
	return o
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
