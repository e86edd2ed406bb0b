package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// At returns S's value at (r, c): 1 if the entry is stored, else 0.
func (s *Pattern) At(r, c int) float64 {
	if s.Has(r, c) {
		return 1
	}
	return 0
}

// Dense returns S as a dense matrix; for small instances only.
func (s *Pattern) Dense() [][]float64 {
	d := make([][]float64, s.Rows())
	for r := range d {
		d[r] = make([]float64, s.Rows())
		for _, c := range s.Col[s.Ptr[r]:s.Ptr[r+1]] {
			d[r][c] = 1
		}
	}
	return d
}

// TransposePerm exposes the counting transpose buildS uses to the
// external tests.
func (s *Pattern) TransposePerm() ([]int32, error) { return s.transposePerm() }

// PatternOf builds an n-row pattern from (row, col) pairs, dropping
// duplicates; symmetric also stores each pair's mirror.
func PatternOf(n int, pairs [][2]int, symmetric bool) *Pattern {
	rows := make([][]int32, n)
	for _, pr := range pairs {
		rows[pr[0]] = append(rows[pr[0]], int32(pr[1]))
		if symmetric {
			rows[pr[1]] = append(rows[pr[1]], int32(pr[0]))
		}
	}
	s := &Pattern{Ptr: make([]int, n+1)}
	for r, cols := range rows {
		slices.Sort(cols)
		s.Col = append(s.Col, slices.Compact(cols)...)
		s.Ptr[r+1] = len(s.Col)
	}
	return s
}

// randomSymmetric returns a symmetric n-row pattern, diagonal included,
// whose entries are present with the given density.
func randomSymmetric(rng *rand.Rand, n int, density float64) *Pattern {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if rng.Float64() < density {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return PatternOf(n, pairs, true)
}

func TestEmptyPattern(t *testing.T) {
	for _, n := range []int{0, 3} {
		s := PatternOf(n, nil, true)
		if s.NNZ() != 0 || s.Rows() != n {
			t.Fatalf("n=%d: %d rows, %d nonzeros", n, s.Rows(), s.NNZ())
		}
		if err := s.validate(n); err != nil {
			t.Fatal(err)
		}
		if perm, err := s.transposePerm(); err != nil || len(perm) != 0 {
			t.Fatalf("n=%d: perm %v, err %v", n, perm, err)
		}
	}
}

func TestPatternHas(t *testing.T) {
	s := PatternOf(4, [][2]int{{0, 0}, {0, 2}, {2, 1}, {3, 3}}, false)
	for _, e := range [][2]int{{0, 0}, {0, 2}, {2, 1}, {3, 3}} {
		if !s.Has(e[0], e[1]) {
			t.Fatalf("Has(%d,%d) = false", e[0], e[1])
		}
	}
	if s.Has(1, 1) || s.Has(0, 1) || s.Has(2, 2) {
		t.Fatal("Has found a missing entry")
	}
}

func TestValidatePattern(t *testing.T) {
	good := PatternOf(3, [][2]int{{0, 1}, {1, 2}}, true)
	if err := good.validate(3); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Pattern{
		"wrong size":    good,
		"descending":    {Ptr: []int{0, 2, 2, 2}, Col: []int32{2, 1}},
		"duplicate":     {Ptr: []int{0, 2, 2, 2}, Col: []int32{1, 1}},
		"out of range":  {Ptr: []int{0, 1, 1, 1}, Col: []int32{3}},
		"negative":      {Ptr: []int{0, 1, 1, 1}, Col: []int32{-1}},
		"ptr decreases": {Ptr: []int{0, 1, 0, 1}, Col: []int32{1}},
	} {
		n := 3
		if name == "wrong size" {
			n = 4
		}
		if err := s.validate(n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTransposePerm permutes distinct values by perm and checks the
// result against the dense transpose.
func TestTransposePerm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSymmetric(rng, 8, 0.4)
	perm, err := s.transposePerm()
	if err != nil {
		t.Fatal(err)
	}
	val := func(r, c int) float64 { return float64(10*r + c) }
	vt := make([]float64, s.NNZ())
	for r := 0; r < s.Rows(); r++ {
		for k := s.Ptr[r]; k < s.Ptr[r+1]; k++ {
			vt[perm[k]] = val(r, int(s.Col[k]))
		}
	}
	for r := 0; r < s.Rows(); r++ {
		for k := s.Ptr[r]; k < s.Ptr[r+1]; k++ {
			if c := int(s.Col[k]); vt[k] != val(c, r) {
				t.Fatalf("transposed value at (%d,%d) = %g, want %g", r, c, vt[k], val(c, r))
			}
		}
	}
	for k, pk := range perm {
		if int(perm[pk]) != k {
			t.Fatalf("perm not involutive at %d", k)
		}
	}
}

func TestTransposePermRejectsAsymmetric(t *testing.T) {
	for _, pairs := range [][][2]int{
		{{0, 1}},
		{{0, 1}, {1, 0}, {1, 2}},
		{{0, 2}, {2, 0}, {1, 0}},
		{{0, 1}, {1, 2}, {2, 0}}, // every row and column has one entry
	} {
		if _, err := PatternOf(3, pairs, false).transposePerm(); err == nil {
			t.Fatalf("asymmetric pattern %v accepted", pairs)
		}
	}
}

// Property: permuting a value array twice by perm is the identity.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%12 + 2
		rng := rand.New(rand.NewSource(seed))
		s := randomSymmetric(rng, n, 0.3)
		perm, err := s.transposePerm()
		if err != nil {
			return false
		}
		vals := make([]float64, s.NNZ())
		for k := range vals {
			vals[k] = rng.NormFloat64()
		}
		once := make([]float64, s.NNZ())
		twice := make([]float64, s.NNZ())
		for k := range once {
			once[k] = vals[perm[k]]
		}
		for k := range twice {
			twice[k] = once[perm[k]]
		}
		return slices.Equal(twice, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	s := PatternOf(3, [][2]int{{0, 0}, {0, 2}, {1, 1}}, false)
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	s.mulVec(dst, x, 0, 2)
	if dst[0] != 4 || dst[1] != 2 || dst[2] != 0 {
		t.Fatalf("mulVec = %v", dst)
	}
}

func TestQuadForm(t *testing.T) {
	s := PatternOf(3, [][2]int{{0, 1}, {1, 2}}, true)
	if got := s.quadForm([]float64{1, 1, 0}, 0, 3); got != 2 { // x0·x1 twice
		t.Fatalf("quadForm = %g, want 2", got)
	}
	x := []float64{1, 2, 3}
	// Rows: 0 → 1 (1·2), 1 → 0,2 (2·(1+3)), 2 → 1 (3·2).
	if got := s.quadForm(x, 0, 3); got != 16 {
		t.Fatalf("quadForm = %g, want 16", got)
	}
	if got := s.quadForm(x, 1, 2); got != 8 {
		t.Fatalf("quadForm over row 1 = %g, want 8", got)
	}
}

func TestClamp(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{{-3, -0.5}, {-0.2, -0.2}, {0, 0}, {0.7, 0.5}, {9, 0.5}} {
		if got := clamp(c.x, -0.5, 0.5); got != c.want {
			t.Fatalf("clamp(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}
