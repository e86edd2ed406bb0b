package matching

import (
	"math"
	"math/rand"
	"testing"
)

// TestTryMatchMonotoneGreedyEquivalence guards against the
// CAS-then-rollback regression in tryMatch: a transiently-set mate
// word makes concurrent FINDMATE scans skip an available vertex, and
// the matcher then commits a non-dominant edge, breaking the greedy
// equivalence that holds for distinct weights. The failure was
// schedule-dependent (roughly 1 in 50 runs on a loaded worker pool),
// so this hammers many small instances across thread counts.
func TestTryMatchMonotoneGreedyEquivalence(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 7919))
		na, nb := rng.Intn(10)+2, rng.Intn(10)+2
		threads := trial%4 + 1
		bg := randomGraph(rng, na, nb, 0.4)
		ld := LocallyDominant(bg, threads, LocallyDominantOptions{OneSidedInit: trial%2 == 0})
		ref := Greedy(bg, 1)
		if math.Abs(ld.Weight-ref.Weight) > 1e-9 {
			t.Fatalf("bipartite trial %d (na=%d nb=%d threads=%d): weight %g != greedy %g", trial, na, nb, threads, ld.Weight, ref.Weight)
		}
	}
}
