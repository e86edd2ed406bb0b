package problemio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/graph"
)

// The reference implementations below are the fmt-based writer and
// the strings.TrimSpace/Fields reader that WriteParts, ReadParts and
// the tokenizer replaced. They are kept verbatim as oracles: the
// canonical problem bytes are content addresses (cache keys, router
// placement), so the fast paths must match them byte for byte and
// accept exactly the same documents.

func referenceWrite(w io.Writer, p *core.Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "netalign 1")
	fmt.Fprintf(bw, "alpha %g\n", p.Alpha)
	fmt.Fprintf(bw, "beta %g\n", p.Beta)
	writeGraph := func(name string, g *graph.Graph) {
		edges := g.Edges()
		fmt.Fprintf(bw, "graph %s %d %d\n", name, g.NumVertices(), len(edges))
		for _, e := range edges {
			fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		}
	}
	writeGraph("A", p.A)
	writeGraph("B", p.B)
	fmt.Fprintf(bw, "graph L %d %d %d\n", p.L.NA, p.L.NB, p.L.NumEdges())
	for e := 0; e < p.L.NumEdges(); e++ {
		fmt.Fprintf(bw, "%d %d %g\n", p.L.EdgeA[e], p.L.EdgeB[e], p.L.W[e])
	}
	return bw.Flush()
}

// referenceLines is the reference tokenizer: the fields of every
// non-blank, non-comment line, with its line number.
func referenceLines(r io.Reader) (lines [][]string, nums []int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, strings.Fields(line))
		nums = append(nums, n)
	}
	return lines, nums, sc.Err()
}

func referenceRead(r io.Reader, threads int) (*core.Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var (
		alpha, beta = 1.0, 1.0
		gotHeader   bool
		a, b        *graph.Graph
		l           *bipartite.Graph
		lineNum     int
	)
	nextLine := func() ([]string, bool, error) {
		for sc.Scan() {
			lineNum++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return strings.Fields(line), true, nil
		}
		return nil, false, sc.Err()
	}
	for {
		fields, ok, err := nextLine()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch fields[0] {
		case "netalign":
			if len(fields) != 2 || fields[1] != "1" {
				return nil, fmt.Errorf("problemio: line %d: unsupported header %v", lineNum, fields)
			}
			gotHeader = true
		case "alpha", "beta":
			if len(fields) != 2 {
				return nil, fmt.Errorf("problemio: line %d: malformed %s", lineNum, fields[0])
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("problemio: line %d: bad %s %q", lineNum, fields[0], fields[1])
			}
			if fields[0] == "alpha" {
				alpha = v
			} else {
				beta = v
			}
		case "graph":
			if len(fields) < 2 {
				return nil, fmt.Errorf("problemio: line %d: malformed graph header", lineNum)
			}
			switch fields[1] {
			case "A", "B":
				if len(fields) != 4 {
					return nil, fmt.Errorf("problemio: line %d: graph %s header needs n and m", lineNum, fields[1])
				}
				n, err1 := strconv.Atoi(fields[2])
				m, err2 := strconv.Atoi(fields[3])
				if err1 != nil || err2 != nil || n < 0 || m < 0 || n > maxTextDim {
					return nil, fmt.Errorf("problemio: line %d: bad graph sizes", lineNum)
				}
				builder := graph.NewBuilder(n)
				for i := 0; i < m; i++ {
					ef, ok, err := nextLine()
					if err != nil || !ok || len(ef) != 2 {
						return nil, fmt.Errorf("problemio: line %d: expected edge %d of graph %s", lineNum, i, fields[1])
					}
					u, err1 := strconv.Atoi(ef[0])
					v, err2 := strconv.Atoi(ef[1])
					if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
						return nil, fmt.Errorf("problemio: line %d: bad edge", lineNum)
					}
					builder.AddEdge(u, v)
				}
				if fields[1] == "A" {
					a = builder.Build()
				} else {
					b = builder.Build()
				}
			case "L":
				if len(fields) != 5 {
					return nil, fmt.Errorf("problemio: line %d: graph L header needs na nb m", lineNum)
				}
				na, err1 := strconv.Atoi(fields[2])
				nb, err2 := strconv.Atoi(fields[3])
				m, err3 := strconv.Atoi(fields[4])
				if err1 != nil || err2 != nil || err3 != nil || na < 0 || nb < 0 || m < 0 || na > maxTextDim || nb > maxTextDim {
					return nil, fmt.Errorf("problemio: line %d: bad L sizes", lineNum)
				}
				prealloc := m
				if prealloc > 1<<20 {
					prealloc = 1 << 20
				}
				edges := make([]bipartite.WeightedEdge, 0, prealloc)
				for i := 0; i < m; i++ {
					ef, ok, err := nextLine()
					if err != nil || !ok || len(ef) != 3 {
						return nil, fmt.Errorf("problemio: line %d: expected L edge %d", lineNum, i)
					}
					va, err1 := strconv.Atoi(ef[0])
					vb, err2 := strconv.Atoi(ef[1])
					w, err3 := strconv.ParseFloat(ef[2], 64)
					if err1 != nil || err2 != nil || err3 != nil || math.IsNaN(w) || math.IsInf(w, 0) {
						return nil, fmt.Errorf("problemio: line %d: bad L edge", lineNum)
					}
					edges = append(edges, bipartite.WeightedEdge{A: va, B: vb, W: w})
				}
				var err error
				l, err = bipartite.New(na, nb, edges)
				if err != nil {
					return nil, fmt.Errorf("problemio: line %d: %v", lineNum, err)
				}
			default:
				return nil, fmt.Errorf("problemio: line %d: unknown graph %q", lineNum, fields[1])
			}
		default:
			return nil, fmt.Errorf("problemio: line %d: unknown directive %q", lineNum, fields[0])
		}
	}
	if !gotHeader {
		return nil, fmt.Errorf("problemio: missing 'netalign 1' header")
	}
	if a == nil || b == nil || l == nil {
		return nil, fmt.Errorf("problemio: missing graph sections (A:%v B:%v L:%v)", a != nil, b != nil, l != nil)
	}
	return core.NewProblem(a, b, l, alpha, beta, threads)
}

// FuzzCanonicalProblem checks the admission path against the
// reference reader and writer: ReadParts followed by core.CheckInputs must
// accept exactly the documents referenceRead accepts, with the same
// error text, and when both accept, WriteParts must produce the
// reference writer's bytes. The tokenizer must also split every
// document into the reference tokenizer's lines and fields.
func FuzzCanonicalProblem(f *testing.F) {
	f.Add(validDoc)
	f.Add("netalign 1\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 0\n")
	f.Add("netalign 1\nalpha -3\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 0\n")
	f.Add("netalign 1\ngraph A 2 0\ngraph B 3 0\ngraph L 2 2 1\n0 0 1\n")
	// Unicode whitespace: U+00A0 (no-break space), U+0085 (next line)
	// and U+2003 (em space) separate fields only through unicode.IsSpace.
	f.Add("netalign\u00a01\ngraph A 2 1\n0\u20031\ngraph B 2 1\n0 1\ngraph L 2 2 1\n0\u00a00 1\n")
	f.Add("netalign\u00851\ngraph A 2 0\ngraph B 2 0\ngraph L 2 2 1\n\u2003 0 0 1 \u0085\n")
	f.Add("\u00a0# comment after a no-break space\nnetalign 1\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 0\n")
	f.Add("netalign 1\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 1\n0 0 1\u00a0\n\xff\n")
	// Tabs, CRLF line ends and indented comments.
	f.Add("netalign\t1\r\nalpha\t2\r\n\t# tabbed comment\r\ngraph A 2 1\r\n0\t1\r\ngraph B 2 0\r\ngraph L 2 2 1\r\n1 1 0.5\r\n")
	f.Add("   # indented\nnetalign 1\n  graph A 1 0\n\n\ngraph B 1 0\ngraph L 1 1 1\n  0 0 3  \n")
	// Float spellings whose %g form is not the input: tiny, huge,
	// negative zero, redundant digits.
	f.Add("netalign 1\nalpha 1e-7\nbeta 1e22\ngraph A 2 1\n0 1\ngraph B 2 1\n0 1\n" +
		"graph L 2 2 4\n0 0 -0\n0 1 1e-7\n1 0 1e22\n1 1 0.30000000000000004\n")
	f.Add("netalign 1\nbeta -0\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 1\n0 0 1E+2\n")
	f.Add("netalign 1\ngraph A 2 1\n0 1 2\n")
	f.Add("netalign 1\ngraph L 2 2 1\n0 0 NaN\n")
	f.Add("netalign 1\ngraph A 2 1\n0 1\ngraph A 2 0\ngraph B 2 0\ngraph L 2 2 0\n")
	f.Fuzz(func(t *testing.T, doc string) {
		refLines, refNums, refTokErr := referenceLines(strings.NewReader(doc))
		tk := newTokenizer(strings.NewReader(doc))
		for i := 0; ; i++ {
			fields, ok, err := tk.next()
			if err != nil || !ok {
				if (err == nil) != (refTokErr == nil) || i != len(refLines) {
					t.Fatalf("tokenizer ended after %d lines (err %v), reference after %d (err %v)",
						i, err, len(refLines), refTokErr)
				}
				break
			}
			if i >= len(refLines) || !reflect.DeepEqual(fields, refLines[i]) || tk.line != refNums[i] {
				t.Fatalf("tokenizer line %d (input line %d) = %q, reference %q", i, tk.line, fields, refLines[i:min(i+1, len(refLines))])
			}
		}

		ref, refErr := referenceRead(strings.NewReader(doc), 1)
		parts, err := ReadParts(strings.NewReader(doc))
		if err == nil {
			err = core.CheckInputs(parts.A, parts.B, parts.L, parts.Alpha, parts.Beta)
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadParts+CheckInputs error %v, reference Read error %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error %q, reference %q", err, refErr)
			}
			return
		}
		var got, want bytes.Buffer
		if err := WriteParts(&got, parts); err != nil {
			t.Fatal(err)
		}
		if err := referenceWrite(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteParts bytes differ from the reference:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
		}
	})
}

// randomWeight draws from the float shapes that stress %g: integers,
// short decimals, full-precision values, extremes and signed zeros.
func randomWeight(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return float64(rng.Intn(2001) - 1000)
	case 1:
		return float64(rng.Intn(1000)) / 100
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
	case 3:
		return []float64{1e-7, 1e22, 1e21, 1e20, 123456789, 1e-5, 1e-4, 0.1, 1.0 / 3}[rng.Intn(9)]
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308}[rng.Intn(4)]
	case 6:
		// Any finite bit pattern, subnormals included.
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	default:
		return rng.Float64()
	}
}

func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	if n > 1 {
		for i := rng.Intn(3 * n); i > 0; i-- {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
	}
	return b.Build()
}

// TestWriteMatchesReference checks Write (through WriteParts) against
// the reference writer byte for byte on randomized problems, and that
// the bytes read back to the same parts.
func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		na, nb := rng.Intn(30), rng.Intn(30)
		if i%50 == 0 {
			// Large enough to cross WriteParts' flush threshold.
			na, nb = 600+rng.Intn(200), 600+rng.Intn(200)
		}
		var edges []bipartite.WeightedEdge
		if na > 0 && nb > 0 {
			for k := rng.Intn(4*(na+nb) + 1); k > 0; k-- {
				edges = append(edges, bipartite.WeightedEdge{A: rng.Intn(na), B: rng.Intn(nb), W: randomWeight(rng)})
			}
		}
		l, err := bipartite.New(na, nb, edges)
		if err != nil {
			t.Fatal(err)
		}
		alpha, beta := math.Abs(randomWeight(rng)), math.Abs(randomWeight(rng))
		p, err := core.NewProblem(randomGraph(rng, na), randomGraph(rng, nb), l, alpha, beta, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := Write(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := referenceWrite(&want, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("problem %d: Write differs from the reference writer", i)
		}
		back, err := ReadParts(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("problem %d: canonical bytes do not read back: %v", i, err)
		}
		if math.Float64bits(back.Alpha) != math.Float64bits(alpha) || !reflect.DeepEqual(back.L.W, l.W) {
			t.Fatalf("problem %d: weights changed across a round trip", i)
		}
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWritePartsReportsWriteError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p, err := core.NewProblem(randomGraph(rng, 2000), randomGraph(rng, 2000),
		mustL(t, 2000, 2000), 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&errWriter{n: writeChunk}, p); err == nil {
		t.Fatal("write error after the first chunk was not reported")
	}
}

func mustL(t *testing.T, na, nb int) *bipartite.Graph {
	t.Helper()
	edges := make([]bipartite.WeightedEdge, 0, na)
	for i := 0; i < na && i < nb; i++ {
		edges = append(edges, bipartite.WeightedEdge{A: i, B: i, W: 1})
	}
	l, err := bipartite.New(na, nb, edges)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
