package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSet(t *testing.T, p50, cpu []float64) string {
	t.Helper()
	dir := t.TempDir()
	for i := range p50 {
		line := fmt.Sprintf(`{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_ms_p50":{"value":%g,"unit":"ms"},"cpu_ms_per_op":{"value":%g,"unit":"ms"}}}`, p50[i], cpu[i])
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("serve-unique.%d.json", i)), []byte("log line\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompareJudgesEachMetricAgainstItsBound(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	def := `{"end_to_end": [
		{"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(spec, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	a := writeSet(t, []float64{100, 101, 102, 103, 104}, []float64{50, 51, 50, 51, 50})
	b := writeSet(t, []float64{120, 121, 122, 123, 124}, []float64{30, 60, 45, 80, 50})
	var out bytes.Buffer
	if err := compareSets(&out, spec, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency_ms_p50", "WORSE", "cpu_ms_per_op", "unresolved", "serve-unique: 5 runs in A, 5 in B"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compareSets(&out, spec, a, a); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "within bound") != 2 {
		t.Errorf("a set compared with itself is not within bound on both metrics:\n%s", out.String())
	}
}
