package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, on small
// problems for half a second each, and checks that each run passes its
// own correctness checks and prints every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		w := tiny(wl.name)
		w.rate *= 2
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			dir := t.TempDir()
			out, tr, err := runWorkload(w, 5, 500*time.Millisecond, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, out.failed, out.attempted, out.problems)
			}
			line, err := out.line(defs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var r resultLine
			dec := json.NewDecoder(bytes.NewReader([]byte(line)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil || !r.Correct || len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line %s (%v)", w.name, traced, line, err)
			}
			if traced {
				if tr == nil {
					t.Fatalf("%s: a traced run returned no tracer", w.name)
				}
				if err := tr.write(filepath.Join(dir, "spans.json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "solve-bp", "-trace", "2"},
		{"-workload", "solve-bp", "-seconds", "0"},
		{"-compare", "only-one"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, stdout.String())
		}
	}
}
