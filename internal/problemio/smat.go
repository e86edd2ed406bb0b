package problemio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/graph"
	"netalignmc/internal/matching"
)

// The SMAT format is the sparse-matrix text format the original
// netalign release distributes its data in: a header line
// "rows cols nnz" followed by one "row col value" triple per line,
// 0-indexed. An undirected graph is an SMAT of its symmetric adjacency
// matrix; the candidate graph L is a rows=|V_A|, cols=|V_B| SMAT of
// weights.

// WriteGraphSMAT writes a graph's adjacency matrix in SMAT form (both
// symmetric entries, unit values).
func WriteGraphSMAT(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	fmt.Fprintf(bw, "%d %d %d\n", n, n, 2*g.NumEdges())
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			fmt.Fprintf(bw, "%d %d 1\n", u, v)
		}
	}
	return bw.Flush()
}

// ReadGraphSMAT reads a graph from SMAT form. The matrix must be
// square; entries are symmetrized and self loops dropped (values are
// ignored beyond being parseable).
func ReadGraphSMAT(r io.Reader) (*graph.Graph, error) {
	rows, cols, entries, err := readSMAT(r)
	if err != nil {
		return nil, err
	}
	if rows != cols {
		return nil, fmt.Errorf("problemio: graph smat must be square, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows)
	for _, t := range entries {
		if t.row != t.col {
			b.AddEdge(t.row, t.col)
		}
	}
	return b.Build(), nil
}

// WriteLSMAT writes the candidate graph L in SMAT form.
func WriteLSMAT(w io.Writer, l *bipartite.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d %d\n", l.NA, l.NB, l.NumEdges())
	for e := 0; e < l.NumEdges(); e++ {
		fmt.Fprintf(bw, "%d %d %g\n", l.EdgeA[e], l.EdgeB[e], l.W[e])
	}
	return bw.Flush()
}

// ReadLSMAT reads a candidate graph from SMAT form; duplicate entries
// keep the maximum weight.
func ReadLSMAT(r io.Reader) (*bipartite.Graph, error) {
	rows, cols, entries, err := readSMAT(r)
	if err != nil {
		return nil, err
	}
	edges := make([]bipartite.WeightedEdge, len(entries))
	for i, t := range entries {
		edges[i] = bipartite.WeightedEdge{A: t.row, B: t.col, W: t.val}
	}
	return bipartite.New(rows, cols, edges)
}

// ReadSMATProblem assembles a problem from three SMAT readers (A, B,
// L) plus objective weights, the layout of the original release's
// data files.
func ReadSMATProblem(aR, bR, lR io.Reader, alpha, beta float64, threads int) (*core.Problem, error) {
	parts, err := ReadSMATParts(aR, bR, lR, alpha, beta)
	if err != nil {
		return nil, err
	}
	return parts.Problem(threads)
}

// ReadSMATParts reads the three SMAT files of ReadSMATProblem without
// building S.
func ReadSMATParts(aR, bR, lR io.Reader, alpha, beta float64) (Parts, error) {
	a, err := ReadGraphSMAT(aR)
	if err != nil {
		return Parts{}, fmt.Errorf("problemio: graph A: %w", err)
	}
	b, err := ReadGraphSMAT(bR)
	if err != nil {
		return Parts{}, fmt.Errorf("problemio: graph B: %w", err)
	}
	l, err := ReadLSMAT(lR)
	if err != nil {
		return Parts{}, fmt.Errorf("problemio: graph L: %w", err)
	}
	return Parts{A: a, B: b, L: l, Alpha: alpha, Beta: beta}, nil
}

// WriteMatching writes an alignment as one "a b" pair per line
// (A-vertex, matched B-vertex), with a "# weight cardinality" comment
// header, so results can be consumed by downstream tooling.
func WriteMatching(w io.Writer, r *matching.Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# matching weight=%g cardinality=%d\n", r.Weight, r.Card)
	for a, b := range r.MateA {
		if b >= 0 {
			fmt.Fprintf(bw, "%d %d\n", a, b)
		}
	}
	return bw.Flush()
}

// ReadMatching reads pairs written by WriteMatching back into a
// Result for the given candidate graph.
func ReadMatching(rd io.Reader, l *bipartite.Graph) (*matching.Result, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	mateA := make([]int, l.NA)
	mateB := make([]int, l.NB)
	for i := range mateA {
		mateA[i] = -1
	}
	for i := range mateB {
		mateB[i] = -1
	}
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Fields(s)
		if len(f) != 2 {
			return nil, fmt.Errorf("problemio: matching line %d: want 'a b'", line)
		}
		a, err1 := strconv.Atoi(f[0])
		b, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || a < 0 || a >= l.NA || b < 0 || b >= l.NB {
			return nil, fmt.Errorf("problemio: matching line %d: bad pair", line)
		}
		if mateA[a] != -1 || mateB[b] != -1 {
			return nil, fmt.Errorf("problemio: matching line %d: vertex reused", line)
		}
		mateA[a] = b
		mateB[b] = a
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	res := matching.NewResult(l, mateA, mateB)
	if err := res.Validate(l); err != nil {
		return nil, fmt.Errorf("problemio: matching invalid for this L: %w", err)
	}
	return res, nil
}

// maxTextDim bounds the side sizes a text reader accepts. Vertex
// counts size O(n) allocations downstream (CSR row pointers, mate
// arrays), so a hostile few-byte header must not be able to demand
// gigabytes; 2^27 (~134M) vertices is far beyond what the text formats
// are practical for.
const maxTextDim = 1 << 27

type smatEntry struct {
	row, col int
	val      float64
}

func readSMAT(r io.Reader) (rows, cols int, entries []smatEntry, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	next := func() ([]string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") || strings.HasPrefix(s, "%") {
				continue
			}
			return strings.Fields(s), true
		}
		return nil, false
	}
	header, ok := next()
	if !ok {
		return 0, 0, nil, fmt.Errorf("problemio: smat: missing header (scan error: %v)", sc.Err())
	}
	if len(header) != 3 {
		return 0, 0, nil, fmt.Errorf("problemio: smat: header needs rows cols nnz, got %v", header)
	}
	rows, err1 := strconv.Atoi(header[0])
	cols, err2 := strconv.Atoi(header[1])
	nnz, err3 := strconv.Atoi(header[2])
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return 0, 0, nil, fmt.Errorf("problemio: smat: bad header %v", header)
	}
	if rows > maxTextDim || cols > maxTextDim {
		return 0, 0, nil, fmt.Errorf("problemio: smat: dimensions %dx%d exceed the text-format limit %d", rows, cols, maxTextDim)
	}
	// Cap the preallocation: a hostile header must not force a huge
	// allocation before any entry has actually been parsed.
	prealloc := nnz
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	entries = make([]smatEntry, 0, prealloc)
	for i := 0; i < nnz; i++ {
		f, ok := next()
		if !ok || len(f) != 3 {
			return 0, 0, nil, fmt.Errorf("problemio: smat: line %d: expected entry %d of %d", line, i, nnz)
		}
		rr, err1 := strconv.Atoi(f[0])
		cc, err2 := strconv.Atoi(f[1])
		vv, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return 0, 0, nil, fmt.Errorf("problemio: smat: line %d: malformed entry", line)
		}
		if math.IsNaN(vv) || math.IsInf(vv, 0) {
			return 0, 0, nil, fmt.Errorf("problemio: smat: line %d: non-finite value %q", line, f[2])
		}
		if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
			return 0, 0, nil, fmt.Errorf("problemio: smat: line %d: entry (%d,%d) out of %dx%d", line, rr, cc, rows, cols)
		}
		entries = append(entries, smatEntry{rr, cc, vv})
	}
	if extra, ok := next(); ok {
		return 0, 0, nil, fmt.Errorf("problemio: smat: trailing content %v after %d entries", extra, nnz)
	}
	return rows, cols, entries, nil
}
