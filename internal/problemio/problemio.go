// Package problemio reads and writes network alignment problems in a
// simple SMAT-like text format, so instances can be generated once,
// saved, and re-run by the CLI tools — mirroring how the paper's
// released code distributes its problem files.
//
// Format (whitespace separated, '#' starts a comment line):
//
//	netalign 1            header and version
//	alpha <float>
//	beta <float>
//	graph A <n> <m>       followed by m lines "u v"
//	graph B <n> <m>       followed by m lines "u v"
//	graph L <na> <nb> <m> followed by m lines "a b w"
//
// Sections may appear in any order; all three graphs are required.
package problemio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/graph"
)

// Parts is a problem before S is built: the two graphs, the
// candidate graph and the objective weights. They are everything the
// text format stores, so a Parts is enough to identify, validate and
// canonicalize a problem; S is only needed to solve it.
type Parts struct {
	A, B        *graph.Graph
	L           *bipartite.Graph
	Alpha, Beta float64
}

// Problem checks the parts and builds S (threads <= 0: GOMAXPROCS).
func (p Parts) Problem(threads int) (*core.Problem, error) {
	return core.NewProblem(p.A, p.B, p.L, p.Alpha, p.Beta, threads)
}

// Write serializes a problem.
func Write(w io.Writer, p *core.Problem) error {
	return WriteParts(w, Parts{A: p.A, B: p.B, L: p.L, Alpha: p.Alpha, Beta: p.Beta})
}

// writeChunk is the size at which WriteParts hands its buffer to w.
const writeChunk = 32 << 10

// WriteParts serializes a problem's parts. Numbers are appended with
// strconv into one reused buffer; the output is byte-identical to
// formatting them with fmt's %d and %g, which are exactly the forms
// strconv.AppendInt and strconv.AppendFloat(v, 'g', -1, 64) produce.
func WriteParts(w io.Writer, p Parts) error {
	buf := make([]byte, 0, writeChunk+128)
	var err error
	flush := func(force bool) {
		if err == nil && (force || len(buf) >= writeChunk) {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
	}
	buf = append(buf, "netalign 1\nalpha "...)
	buf = strconv.AppendFloat(buf, p.Alpha, 'g', -1, 64)
	buf = append(buf, "\nbeta "...)
	buf = strconv.AppendFloat(buf, p.Beta, 'g', -1, 64)
	buf = append(buf, '\n')
	writeGraph := func(name string, g *graph.Graph) {
		edges := g.Edges()
		buf = append(buf, "graph "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(len(edges)), 10)
		buf = append(buf, '\n')
		for _, e := range edges {
			buf = strconv.AppendInt(buf, int64(e.U), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(e.V), 10)
			buf = append(buf, '\n')
			flush(false)
		}
	}
	writeGraph("A", p.A)
	writeGraph("B", p.B)
	l := p.L
	buf = append(buf, "graph L "...)
	buf = strconv.AppendInt(buf, int64(l.NA), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(l.NB), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(l.NumEdges()), 10)
	buf = append(buf, '\n')
	for e := 0; e < l.NumEdges(); e++ {
		buf = strconv.AppendInt(buf, int64(l.EdgeA[e]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(l.EdgeB[e]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, l.W[e], 'g', -1, 64)
		buf = append(buf, '\n')
		flush(false)
	}
	flush(true)
	return err
}

// Read parses a problem and rebuilds S (threads <= 0: GOMAXPROCS).
func Read(r io.Reader, threads int) (*core.Problem, error) {
	parts, err := ReadParts(r)
	if err != nil {
		return nil, err
	}
	return parts.Problem(threads)
}

// ReadParts parses a problem without building S. It rejects exactly
// the documents Read rejects for their text; core.CheckInputs then
// rejects exactly the inputs core.NewProblem would.
func ReadParts(r io.Reader) (Parts, error) {
	tk := newTokenizer(r)
	var (
		alpha, beta = 1.0, 1.0
		gotHeader   bool
		a, b        *graph.Graph
		l           *bipartite.Graph
	)
	for {
		fields, ok, err := tk.next()
		if err != nil {
			return Parts{}, err
		}
		if !ok {
			break
		}
		lineNum := tk.line
		switch fields[0] {
		case "netalign":
			if len(fields) != 2 || fields[1] != "1" {
				return Parts{}, fmt.Errorf("problemio: line %d: unsupported header %v", lineNum, fields)
			}
			gotHeader = true
		case "alpha", "beta":
			if len(fields) != 2 {
				return Parts{}, fmt.Errorf("problemio: line %d: malformed %s", lineNum, fields[0])
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return Parts{}, fmt.Errorf("problemio: line %d: bad %s %q", lineNum, fields[0], fields[1])
			}
			if fields[0] == "alpha" {
				alpha = v
			} else {
				beta = v
			}
		case "graph":
			if len(fields) < 2 {
				return Parts{}, fmt.Errorf("problemio: line %d: malformed graph header", lineNum)
			}
			// The edge lines below reuse the tokenizer's field array,
			// so everything the section needs from its header is
			// captured here first.
			name := fields[1]
			switch name {
			case "A", "B":
				if len(fields) != 4 {
					return Parts{}, fmt.Errorf("problemio: line %d: graph %s header needs n and m", lineNum, name)
				}
				n, err1 := strconv.Atoi(fields[2])
				m, err2 := strconv.Atoi(fields[3])
				if err1 != nil || err2 != nil || n < 0 || m < 0 || n > maxTextDim {
					return Parts{}, fmt.Errorf("problemio: line %d: bad graph sizes", lineNum)
				}
				builder := graph.NewBuilder(n)
				for i := 0; i < m; i++ {
					ef, ok, err := tk.next()
					if err != nil || !ok || len(ef) != 2 {
						return Parts{}, fmt.Errorf("problemio: line %d: expected edge %d of graph %s", tk.line, i, name)
					}
					u, err1 := strconv.Atoi(ef[0])
					v, err2 := strconv.Atoi(ef[1])
					if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
						return Parts{}, fmt.Errorf("problemio: line %d: bad edge", tk.line)
					}
					builder.AddEdge(u, v)
				}
				if name == "A" {
					a = builder.Build()
				} else {
					b = builder.Build()
				}
			case "L":
				if len(fields) != 5 {
					return Parts{}, fmt.Errorf("problemio: line %d: graph L header needs na nb m", lineNum)
				}
				na, err1 := strconv.Atoi(fields[2])
				nb, err2 := strconv.Atoi(fields[3])
				m, err3 := strconv.Atoi(fields[4])
				if err1 != nil || err2 != nil || err3 != nil || na < 0 || nb < 0 || m < 0 || na > maxTextDim || nb > maxTextDim {
					return Parts{}, fmt.Errorf("problemio: line %d: bad L sizes", lineNum)
				}
				prealloc := m
				if prealloc > 1<<20 {
					prealloc = 1 << 20 // do not trust huge headers before parsing
				}
				edges := make([]bipartite.WeightedEdge, 0, prealloc)
				for i := 0; i < m; i++ {
					ef, ok, err := tk.next()
					if err != nil || !ok || len(ef) != 3 {
						return Parts{}, fmt.Errorf("problemio: line %d: expected L edge %d", tk.line, i)
					}
					va, err1 := strconv.Atoi(ef[0])
					vb, err2 := strconv.Atoi(ef[1])
					w, err3 := strconv.ParseFloat(ef[2], 64)
					if err1 != nil || err2 != nil || err3 != nil || math.IsNaN(w) || math.IsInf(w, 0) {
						return Parts{}, fmt.Errorf("problemio: line %d: bad L edge", tk.line)
					}
					edges = append(edges, bipartite.WeightedEdge{A: va, B: vb, W: w})
				}
				var err error
				l, err = bipartite.New(na, nb, edges)
				if err != nil {
					return Parts{}, fmt.Errorf("problemio: line %d: %v", tk.line, err)
				}
			default:
				return Parts{}, fmt.Errorf("problemio: line %d: unknown graph %q", lineNum, name)
			}
		default:
			return Parts{}, fmt.Errorf("problemio: line %d: unknown directive %q", lineNum, fields[0])
		}
	}
	if !gotHeader {
		return Parts{}, fmt.Errorf("problemio: missing 'netalign 1' header")
	}
	if a == nil || b == nil || l == nil {
		return Parts{}, fmt.Errorf("problemio: missing graph sections (A:%v B:%v L:%v)", a != nil, b != nil, l != nil)
	}
	return Parts{A: a, B: b, L: l, Alpha: alpha, Beta: beta}, nil
}

// tokenizer splits the netalign format into the whitespace-separated
// fields of its non-blank, non-comment lines. An all-ASCII line costs
// one string allocation: its fields are substrings of it, collected
// in an array reused across calls, so a returned slice is only valid
// until the next call (the strings themselves stay valid). A line
// with any non-ASCII byte takes the strings.TrimSpace/Fields path,
// which also treats Unicode spaces (U+0085, U+00A0, U+2003, ...) as
// separators.
type tokenizer struct {
	sc     *bufio.Scanner
	line   int
	fields []string
}

func newTokenizer(r io.Reader) *tokenizer {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	return &tokenizer{sc: sc, fields: make([]string, 0, 8)}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// next returns the fields of the next line that is neither blank nor
// a '#' comment (after leading whitespace); ok is false at the end of
// the input.
func (t *tokenizer) next() (fields []string, ok bool, err error) {
	for t.sc.Scan() {
		t.line++
		raw := t.sc.Bytes()
		if !isASCII(raw) {
			line := strings.TrimSpace(string(raw))
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return strings.Fields(line), true, nil
		}
		i := 0
		for i < len(raw) && asciiSpace[raw[i]] {
			i++
		}
		if i == len(raw) || raw[i] == '#' {
			continue
		}
		s := string(raw[i:])
		t.fields = t.fields[:0]
		for j := 0; j < len(s); {
			for j < len(s) && asciiSpace[s[j]] {
				j++
			}
			k := j
			for k < len(s) && !asciiSpace[s[k]] {
				k++
			}
			if k > j {
				t.fields = append(t.fields, s[j:k])
			}
			j = k
		}
		return t.fields, true, nil
	}
	return nil, false, t.sc.Err()
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
