package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet maps workload → metric → the values of its correct runs.
type resultSet struct {
	values    map[string]map[string][]float64
	runs      map[string]int
	incorrect int
}

// loadSet reads every <workload>.<anything> file in dir whose last
// line is a result object.
func loadSet(dir string) (*resultSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	s := &resultSet{values: make(map[string]map[string][]float64), runs: make(map[string]int)}
	for _, e := range entries {
		w, _, ok := strings.Cut(e.Name(), ".")
		if !ok || e.IsDir() {
			continue
		}
		if _, err := findWorkload(w); err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r resultLine
		if err := json.Unmarshal(lastLine(data), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, e.Name()), err)
		}
		if !r.Correct {
			s.incorrect++
			continue
		}
		if s.values[w] == nil {
			s.values[w] = make(map[string][]float64)
		}
		s.runs[w]++
		for name, m := range r.Metrics {
			s.values[w][name] = append(s.values[w][name], m.Value)
		}
	}
	return s, nil
}

func lastLine(data []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (method "exclusive"),
// the definition the run-to-run spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// compareSets prints, for every workload and end-to-end metric, each
// set's median and quartiles and whether B's median is within the
// metric's bound of A's. A pair is unresolved when either set's
// quartile spread, as a share of its median, is wider than the bound.
func compareSets(out io.Writer, specPath, dirA, dirB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadSet(dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tA spread\tB median [q1, q3]\tB spread\tB vs A\tbound\tverdict")
	for _, w := range workloads {
		if a.runs[w.name] == 0 || b.runs[w.name] == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := a.values[w.name][m.Name], b.values[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/ma, (b3-b1)/mb
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "WORSE"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.1f%%\t%.4g [%.4g, %.4g] %s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, ma, a1, a3, m.Unit, 100*spreadA, mb, b1, b3, m.Unit, 100*spreadB,
				100*(mb-ma)/ma, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "%s: %d runs in A, %d in B\n", w.name, a.runs[w.name], b.runs[w.name])
	}
	if a.incorrect+b.incorrect > 0 {
		fmt.Fprintf(out, "left out: %d incorrect runs in A, %d in B\n", a.incorrect, b.incorrect)
	}
	return nil
}
