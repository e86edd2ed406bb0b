package core

import (
	"fmt"
	"math"
	"math/rand"
)

// Verify cross-checks the problem's derived structures against their
// definitions: L is structurally valid with finite weights, S's
// pattern is a valid |E_L|-by-|E_L| pattern with an empty diagonal,
// SPerm maps every entry (r, c) to the stored entry (c, r) and back,
// and sampleEntries randomly sampled (edge, edge) pairs of S agree
// with the overlap definition
// S[(i,i'),(j,j')] = 1 ⇔ (i,j) ∈ E_A ∧ (i',j') ∈ E_B (0 samples all
// pairs of stored entries plus an equal number of random pairs, which
// is exhaustive only for tiny problems — prefer a positive sample
// count on anything real). It exists for loaders and tests; a healthy
// problem always verifies.
func (p *Problem) Verify(sampleEntries int, rng *rand.Rand) error {
	if err := p.L.Validate(); err != nil {
		return fmt.Errorf("core: L invalid: %w", err)
	}
	for e, w := range p.L.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: L weight %d is not finite", e)
		}
	}
	m := p.L.NumEdges()
	if err := p.S.validate(m); err != nil {
		return fmt.Errorf("core: S invalid: %w", err)
	}
	nnz := p.S.NNZ()
	if len(p.SPerm) != nnz {
		return fmt.Errorf("core: transpose permutation has %d entries, S has %d", len(p.SPerm), nnz)
	}
	for r := 0; r < m; r++ {
		for k := p.S.Ptr[r]; k < p.S.Ptr[r+1]; k++ {
			c := int(p.S.Col[k])
			if c == r {
				return fmt.Errorf("core: S has a diagonal entry at %d", k)
			}
			kt := int(p.SPerm[k])
			if kt < p.S.Ptr[c] || kt >= p.S.Ptr[c+1] || int(p.S.Col[kt]) != r || int(p.SPerm[kt]) != k {
				return fmt.Errorf("core: transpose permutation does not map entry (%d,%d) to (%d,%d) and back", r, c, c, r)
			}
		}
	}
	check := func(e1, e2 int) error {
		i, iP := p.L.EdgeA[e1], p.L.EdgeB[e1]
		j, jP := p.L.EdgeA[e2], p.L.EdgeB[e2]
		want := p.A.HasEdge(i, j) && p.B.HasEdge(iP, jP)
		if got := p.S.Has(e1, e2); got != want {
			return fmt.Errorf("core: S[(%d,%d),(%d,%d)] stored = %t, want %t", i, iP, j, jP, got, want)
		}
		return nil
	}
	if m == 0 {
		return nil
	}
	if sampleEntries <= 0 {
		// Exhaustive over stored entries plus random zero checks.
		for r := 0; r < m; r++ {
			for _, c := range p.S.Col[p.S.Ptr[r]:p.S.Ptr[r+1]] {
				if err := check(r, int(c)); err != nil {
					return err
				}
			}
		}
		sampleEntries = nnz + 16
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	for s := 0; s < sampleEntries; s++ {
		if err := check(rng.Intn(m), rng.Intn(m)); err != nil {
			return err
		}
	}
	return nil
}
