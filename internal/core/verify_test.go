package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestVerifyHealthyProblem(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	if err := p.Verify(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(50, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesCorruptedS(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	// Swap two permutation entries: still a permutation, but no
	// longer the transpose.
	p.SPerm[0], p.SPerm[1] = p.SPerm[1], p.SPerm[0]
	if err := p.Verify(0, nil); err == nil {
		t.Fatal("swapped permutation entries accepted")
	}
	p.SPerm[0], p.SPerm[1] = p.SPerm[1], p.SPerm[0]

	// Inject a wrong permutation.
	old := p.SPerm[0]
	p.SPerm[0] = p.SPerm[1]
	if err := p.Verify(0, nil); err == nil {
		t.Fatal("corrupted permutation accepted")
	}
	p.SPerm[0] = old

	// Inject a structural lie: move a column index so S disagrees
	// with the overlap definition.
	// Entry 0 is in row 0.
	oldCol := p.S.Col[0]
	for c := int32(0); c < int32(p.S.Rows()); c++ {
		if c != oldCol && c != 0 {
			// keep sortedness plausible for a 4-column matrix by
			// rebuilding Col[0] only when it stays sorted
			p.S.Col[0] = c
			break
		}
	}
	if err := p.Verify(0, nil); err == nil {
		t.Fatal("corrupted S structure accepted")
	}
	p.S.Col[0] = oldCol

	if err := p.Verify(0, nil); err != nil {
		t.Fatalf("restoration failed: %v", err)
	}
}

func TestVerifyCatchesNonFiniteWeights(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	old := p.L.W[0]
	p.L.W[0] = math.NaN()
	if err := p.Verify(0, nil); err == nil {
		t.Fatal("NaN weight accepted")
	}
	p.L.W[0] = math.Inf(1)
	if err := p.Verify(0, nil); err == nil {
		t.Fatal("Inf weight accepted")
	}
	p.L.W[0] = old
}

func TestVerifyEmptyProblem(t *testing.T) {
	p := tinyProblem(t, 1, 2)
	p2, err := p.RemoveCandidates([]int{0, 1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Verify(0, nil); err != nil {
		t.Fatalf("empty L should verify: %v", err)
	}
}
