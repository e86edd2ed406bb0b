package core_test

// The counting transpose that builds Problem.SPerm is checked here
// against the binary-search transpose it replaced, kept verbatim as the
// reference: find each entry's mirror (c, r) by searching row c, after
// a first pass that searches every mirror to prove symmetry.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
)

// refFind returns the entry index of (r, c) and whether it is stored.
func refFind(m *core.Pattern, r, c int) (int, bool) {
	lo, hi := m.RowRange(r)
	cols := m.Col[lo:hi]
	i := sort.Search(len(cols), func(i int) bool { return int(cols[i]) >= c })
	if i < len(cols) && int(cols[i]) == c {
		return lo + i, true
	}
	return -1, false
}

// refStructurallySymmetric reports whether for every stored (i,j) the
// entry (j,i) is also stored.
func refStructurallySymmetric(m *core.Pattern) bool {
	for r := 0; r < m.Rows(); r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			if _, ok := refFind(m, int(m.Col[k]), r); !ok {
				return false
			}
		}
	}
	return true
}

// refTransposePerm computes, for a structurally symmetric pattern, the
// permutation perm with perm[k] = index of entry (j,i) when k is the
// index of entry (i,j).
func refTransposePerm(m *core.Pattern) ([]int, error) {
	if !refStructurallySymmetric(m) {
		return nil, fmt.Errorf("transpose permutation requires a structurally symmetric pattern")
	}
	perm := make([]int, m.NNZ())
	for r := 0; r < m.Rows(); r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			kt, _ := refFind(m, int(m.Col[k]), r)
			perm[k] = kt
		}
	}
	return perm, nil
}

// checkTransposeMatchesReference fails unless the counting transpose
// and the reference agree: both reject the pattern, or both accept it
// with the same permutation element for element.
func checkTransposeMatchesReference(t *testing.T, s *core.Pattern) {
	t.Helper()
	got, gotErr := s.TransposePerm()
	want, wantErr := refTransposePerm(s)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("counting transpose err = %v, reference err = %v on %v %v", gotErr, wantErr, s.Ptr, s.Col)
	}
	if len(got) != len(want) {
		t.Fatalf("perm has %d entries, reference %d", len(got), len(want))
	}
	for k := range want {
		if int(got[k]) != want[k] {
			t.Fatalf("perm[%d] = %d, reference %d", k, got[k], want[k])
		}
	}
}

func TestSPermMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		pairs := make([][2]int, rng.Intn(4*n))
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		sym := core.PatternOf(n, pairs, true)
		if _, err := sym.TransposePerm(); err != nil {
			t.Fatalf("trial %d: symmetric pattern rejected: %v", trial, err)
		}
		checkTransposeMatchesReference(t, sym)

		// Drop one off-diagonal entry's mirror: both must reject.
		var off [][2]int
		for _, pr := range pairs {
			if pr[0] != pr[1] {
				off = append(off, pr)
			}
		}
		if len(off) == 0 {
			continue
		}
		drop := off[rng.Intn(len(off))]
		var kept [][2]int
		for _, pr := range pairs {
			if pr != drop && pr != [2]int{drop[1], drop[0]} {
				kept = append(kept, pr, [2]int{pr[1], pr[0]})
			}
		}
		asym := core.PatternOf(n, append(kept, drop), false)
		if _, err := asym.TransposePerm(); err == nil {
			t.Fatalf("trial %d: asymmetric pattern accepted", trial)
		}
		checkTransposeMatchesReference(t, asym)

		// Add a directed cycle: every row gains as many entries as its
		// column, so only the mirror check can reject it.
		if n < 3 {
			continue
		}
		cyc := rng.Perm(n)[:3+rng.Intn(n-2)]
		withCycle := append([][2]int(nil), kept...)
		for i, v := range cyc {
			withCycle = append(withCycle, [2]int{v, cyc[(i+1)%len(cyc)]})
		}
		checkTransposeMatchesReference(t, core.PatternOf(n, withCycle, false))
	}
}

func TestSPermMatchesReferenceSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		o := gen.DefaultSynthetic(6, seed)
		o.N = 300
		p, err := gen.Synthetic(o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refTransposePerm(p.S)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.SPerm) != len(want) {
			t.Fatalf("seed %d: SPerm has %d entries, reference %d", seed, len(p.SPerm), len(want))
		}
		for k := range want {
			if int(p.SPerm[k]) != want[k] {
				t.Fatalf("seed %d: SPerm[%d] = %d, reference %d", seed, k, p.SPerm[k], want[k])
			}
		}
	}
}

// FuzzSPermMatchesReference decodes a pattern from the input — the
// first byte picks the size and whether to store mirrors, every later
// byte pair is an entry — and checks the counting transpose against
// the reference on it.
func FuzzSPermMatchesReference(f *testing.F) {
	f.Add([]byte{0x85, 0, 1, 2, 3, 4, 4})
	f.Add([]byte{0x05, 0, 1, 2, 3, 1, 0})
	f.Add([]byte{0x07, 0, 1, 1, 0, 2, 3})
	f.Add([]byte{0x03, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{0x8f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]&0x3f)
		var pairs [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			pairs = append(pairs, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		checkTransposeMatchesReference(t, core.PatternOf(n, pairs, data[0]&0x80 != 0))
	})
}
