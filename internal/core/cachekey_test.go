package core

import (
	"testing"

	"netalignmc/internal/matching"
)

func TestCacheFingerprintResolvesDefaults(t *testing.T) {
	zero, ok := Options{}.CacheFingerprint()
	if !ok {
		t.Fatal("zero options not cacheable")
	}
	explicit, ok := Options{BP: BPOptions{Iterations: 100, Gamma: 0.99, Batch: 1}}.CacheFingerprint()
	if !ok {
		t.Fatal("explicit defaults not cacheable")
	}
	if zero != explicit {
		t.Errorf("unset defaults fingerprint %q != explicit defaults %q", zero, explicit)
	}
}

func TestCacheFingerprintSensitivity(t *testing.T) {
	base := Options{BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2}}
	fp := func(o Options) string {
		t.Helper()
		s, ok := o.CacheFingerprint()
		if !ok {
			t.Fatalf("options unexpectedly not cacheable: %+v", o)
		}
		return s
	}
	ref := fp(base)

	// Output-affecting changes must change the fingerprint.
	changed := map[string]Options{
		"method":    {Method: MethodMR, MR: MROptions{Iterations: 50, Gamma: 0.9}},
		"iters":     {BP: BPOptions{Iterations: 51, Gamma: 0.9, Batch: 2}},
		"gamma":     {BP: BPOptions{Iterations: 50, Gamma: 0.8, Batch: 2}},
		"batch":     {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 4}},
		"damp":      {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, Damp: DampConstant}},
		"matcher":   {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, Matcher: matching.MatcherSpec{Name: "approx"}}},
		"skipfinal": {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, SkipFinalExact: true}},
		"guard":     {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, GuardLimit: 1e50}},
	}
	for name, o := range changed {
		if got := fp(o); got == ref {
			t.Errorf("changing %s did not change the fingerprint %q", name, got)
		}
	}

	// Dispatch-layer and instrumentation changes must not.
	same := map[string]Options{
		"threads": {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, Threads: 8}},
		"chunk":   {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, Chunk: 64}},
		"trace":   {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2, Trace: true}},
		"observer": {BP: BPOptions{Iterations: 50, Gamma: 0.9, Batch: 2,
			Observer: func(int, []float64, []float64) {}}},
	}
	for name, o := range same {
		if got := fp(o); got != ref {
			t.Errorf("changing %s changed the fingerprint: %q != %q", name, got, ref)
		}
	}
}

func TestCacheFingerprintNotCacheable(t *testing.T) {
	cases := map[string]Options{
		"warm start": {BP: BPOptions{WarmY: []float64{1}, WarmZ: []float64{1}}},
		"resume":     {BP: BPOptions{Resume: &Checkpoint{}}},
		"mr resume":  {Method: MethodMR, MR: MROptions{Resume: &Checkpoint{}}},
	}
	for name, o := range cases {
		if fp, ok := o.CacheFingerprint(); ok {
			t.Errorf("%s: unexpectedly cacheable as %q", name, fp)
		}
	}
}
