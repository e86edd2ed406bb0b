package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"netalignmc/internal/core"
)

func TestArrivalsAreASeededSchedule(t *testing.T) {
	a, b := arrivals(7, 200, 20*time.Second), arrivals(7, 200, 20*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, arrivals(8, 200, 20*time.Second)) {
		t.Error("two seeds gave one schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 20*time.Second {
		t.Errorf("schedule is not sorted within the period: first %v, last %v", a[0], a[len(a)-1])
	}
}

// tiny returns w shrunk so a test can generate and solve it quickly.
func tiny(name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	w.n, w.dbar, w.iterations = 60, 4, 10
	if w.distinct > 0 {
		w.distinct = 3
	}
	return w
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"serve-unique", "serve-repeat"} {
		w := tiny(name)
		a, err := w.inputs(3, 12)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.inputs(3, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.pick, b.pick) || !slices.EqualFunc(a.jobs, b.jobs, bytes.Equal) ||
			!slices.EqualFunc(a.warmup, b.warmup, bytes.Equal) {
			t.Errorf("%s: one seed gave two sets of inputs", name)
		}
	}
}

func TestChecksRejectWrongOutputs(t *testing.T) {
	w := tiny("solve-bp")
	p, err := w.problem(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Align(context.Background(), w.options(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	good := res.JSON()
	if err := w.checkResult(p, good); err != nil {
		t.Fatalf("a correct solve failed its check: %v", err)
	}
	for name, corrupt := range map[string]func(r *core.ResultJSON){
		"objective":   func(r *core.ResultJSON) { r.Objective++ },
		"stop reason": func(r *core.ResultJSON) { r.Stopped = core.StopDeadline },
		"iterations":  func(r *core.ResultJSON) { r.Iterations-- },
		"not a matching": func(r *core.ResultJSON) {
			a, b := firstMatched(r.MateA)
			r.MateA[(a+1)%len(r.MateA)] = b
		},
		"not an edge": func(r *core.ResultJSON) { r.MateA[0] = p.L.NB },
	} {
		bad := *good
		bad.MateA = slices.Clone(good.MateA)
		corrupt(&bad)
		if err := w.checkResult(p, &bad); err == nil {
			t.Errorf("a result with a wrong %s passed its check", name)
		}
	}
}

func firstMatched(mateA []int) (a, b int) {
	for a, b := range mateA {
		if b >= 0 {
			return a, b
		}
	}
	return 0, -1
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestBenchmarkJSONNamesWhatTheHarnessEmits(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range def.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, names) {
		t.Errorf("BENCHMARK.json lists workloads %v, the harness runs %v", listed, names)
	}
	for _, c := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		emits  []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.listed) != len(c.emits) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", c.kind, len(c.listed), len(c.emits))
			continue
		}
		for i, m := range c.listed {
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", c.kind, m.Name)
			}
			if m.Name != c.emits[i].name || m.Unit != c.emits[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness emits %s (%s)",
					c.kind, i, m.Name, m.Unit, c.emits[i].name, c.emits[i].unit)
			}
		}
	}
}
