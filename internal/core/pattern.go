package core

import (
	"fmt"
	"slices"
)

// Pattern is the nonzero pattern of the overlap matrix S in compressed
// sparse row form. S's stored values are all ones, so the pattern is
// all of S: the solvers keep their matrices over S (the multipliers U,
// the messages S^(k), the bounds F and the row matchings S_L) as value
// arrays on this one pattern — "all non-zero patterns and structures
// remain fixed throughout iterations" — and realize transposes by
// permuting those values with Problem.SPerm.
type Pattern struct {
	Ptr []int   // row r's entries are [Ptr[r], Ptr[r+1])
	Col []int32 // column of each entry, strictly increasing within a row
}

// NNZ returns the number of stored entries.
func (s *Pattern) NNZ() int { return len(s.Col) }

// Rows returns the number of rows.
func (s *Pattern) Rows() int { return len(s.Ptr) - 1 }

// RowRange returns the half-open entry range [lo,hi) of row r.
func (s *Pattern) RowRange(r int) (lo, hi int) { return s.Ptr[r], s.Ptr[r+1] }

// Has reports whether entry (r, c) is stored.
func (s *Pattern) Has(r, c int) bool {
	_, ok := slices.BinarySearch(s.Col[s.Ptr[r]:s.Ptr[r+1]], int32(c))
	return ok
}

// validate checks that the pattern is n-by-n with monotone row
// pointers and in-range, strictly increasing columns in every row.
func (s *Pattern) validate(n int) error {
	if len(s.Ptr) != n+1 || s.Ptr[0] != 0 || s.Ptr[n] != len(s.Col) {
		return fmt.Errorf("row pointers do not describe %d rows of %d entries", n, len(s.Col))
	}
	for r := 0; r < n; r++ {
		if s.Ptr[r] > s.Ptr[r+1] {
			return fmt.Errorf("row pointer decreases at row %d", r)
		}
		for k := s.Ptr[r]; k < s.Ptr[r+1]; k++ {
			if c := s.Col[k]; c < 0 || int(c) >= n {
				return fmt.Errorf("column %d out of range in row %d", c, r)
			}
			if k > s.Ptr[r] && s.Col[k-1] >= s.Col[k] {
				return fmt.Errorf("columns not strictly increasing in row %d", r)
			}
		}
	}
	return nil
}

// transposePerm returns perm with perm[k] the index of entry (c, r)
// when k is the index of entry (r, c): permuting a value array by it
// transposes the matrix without touching the pattern, the paper's
// "we just permute the values array according to the permutation".
//
// It is a counting transpose. Rows are visited in ascending order and
// every row lists its columns in ascending order, so the j-th visit to
// column c is entry j of row c; next[c] holds that entry. Checking that
// the entry exists and has column r on the way proves structural
// symmetry in the same pass, with no search. Columns must lie in
// [0, Rows()).
func (s *Pattern) transposePerm() ([]int32, error) {
	rows := s.Rows()
	next := slices.Clone(s.Ptr[:rows])
	perm := make([]int32, len(s.Col))
	for r := 0; r < rows; r++ {
		for k := s.Ptr[r]; k < s.Ptr[r+1]; k++ {
			c := s.Col[k]
			kt := next[c]
			if kt >= s.Ptr[c+1] || int(s.Col[kt]) != r {
				return nil, fmt.Errorf("entry (%d,%d) has no mirror (%d,%d)", r, c, c, r)
			}
			next[c]++
			perm[k] = int32(kt)
		}
	}
	return perm, nil
}

// quadForm returns Σ over rows [lo,hi) of x[r]·Σ_{c ∈ row r} x[c];
// summing over all rows yields xᵀSx. The caller combines per-range
// partial sums.
func (s *Pattern) quadForm(x []float64, lo, hi int) float64 {
	sum := 0.0
	for r := lo; r < hi; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		rowSum := 0.0
		for _, c := range s.Col[s.Ptr[r]:s.Ptr[r+1]] {
			rowSum += x[c]
		}
		sum += xr * rowSum
	}
	return sum
}

// mulVec computes dst[r] = Σ_{c ∈ row r} x[c] for rows [lo,hi): the
// product S·x restricted to a row range.
func (s *Pattern) mulVec(dst, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		sum := 0.0
		for _, c := range s.Col[s.Ptr[r]:s.Ptr[r+1]] {
			sum += x[c]
		}
		dst[r] = sum
	}
}
