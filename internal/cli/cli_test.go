package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/faults"
	"netalignmc/internal/problemio"
)

func TestGenerateSynthetic(t *testing.T) {
	var buf bytes.Buffer
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 40, DBar: 3, Seed: 5}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.A.NumVertices() != 40 {
		t.Fatalf("N = %d", p.A.NumVertices())
	}
	// The written document must parse back.
	q, err := problemio.Read(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.L.NumEdges() != p.L.NumEdges() {
		t.Fatal("write/read mismatch")
	}
}

func TestGenerateStandIns(t *testing.T) {
	for _, typ := range []string{"dmela-scere", "homo-musm", "lcsh-wiki", "lcsh-rameau"} {
		p, err := Generate(GenerateOptions{Type: typ, Scale: 0.01, Seed: 2}, nil)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if p.L.NumEdges() == 0 {
			t.Fatalf("%s: empty L", typ)
		}
	}
	if _, err := Generate(GenerateOptions{Type: "nope"}, nil); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestGenerateDefaultsAndOverrides(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "", N: 30, DBar: 2, Alpha: 2, Beta: 3, Perturb: 0.05, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alpha != 2 || p.Beta != 3 {
		t.Fatalf("objective weights %g/%g", p.Alpha, p.Beta)
	}
}

func TestAlignBothMethods(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 30, DBar: 2, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"bp", "mr", ""} {
		var buf bytes.Buffer
		res, err := Align(p, AlignOptions{Method: method, Iters: 8, Approx: true, Timing: true, Trace: true}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if err := res.Matching.Validate(p.L); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		out := buf.String()
		for _, want := range []string{"objective:", "match weight:", "overlap:", "step breakdown", "objective trace"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: output missing %q:\n%s", method, want, out)
			}
		}
	}
	if _, err := Align(p, AlignOptions{Method: "qp"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestVerify(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 25, DBar: 2, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Verify(p, nil, VerifyOptions{Samples: 100}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "problem verified") {
		t.Fatal("verify output missing")
	}

	// With a valid matching.
	res, err := Align(p, AlignOptions{Method: "bp", Iters: 5}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Verify(p, res.Matching, VerifyOptions{Samples: 50}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "matching verified") {
		t.Fatal("matching verify output missing")
	}

	// Corrupt the problem by moving one stored column of S:
	// verification must fail.
	if p.NNZS() == 0 {
		t.Fatal("problem has an empty S")
	}
	p.S.Col[0]++
	if err := Verify(p, nil, VerifyOptions{}, &buf); err == nil {
		t.Fatal("corrupted problem verified")
	}
	p.S.Col[0]--

	// Invalid matching: mates not mutual.
	bad := *res.Matching
	bad.MateA = append([]int(nil), res.Matching.MateA...)
	for a, b := range bad.MateA {
		if b >= 0 {
			bad.MateA[a] = -1
			break
		}
	}
	if err := Verify(p, &bad, VerifyOptions{Samples: 10}, &buf); err == nil {
		t.Fatal("inconsistent matching verified")
	}
}

func TestDescribeProblem(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 20, DBar: 1, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	DescribeProblem(p, "x", &buf)
	if !strings.Contains(buf.String(), "|V_A|=20") {
		t.Fatalf("describe output: %s", buf.String())
	}
}

func TestAlignCheckpointAndResume(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 40, DBar: 3, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	var buf bytes.Buffer
	if _, err := Align(p, AlignOptions{
		Method: "bp", Iters: 8, Threads: 1,
		CheckpointPath: ckpt, CheckpointEvery: 4,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stopped:      max-iterations") {
		t.Fatalf("missing stop reason:\n%s", buf.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	// Resume continues past the checkpointed iteration.
	buf.Reset()
	res, err := Align(p, AlignOptions{
		Method: "bp", Iters: 12, Threads: 1, ResumePath: ckpt,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 12 {
		t.Fatalf("resumed run stopped at iteration %d", res.Iterations)
	}
	// A missing resume file is a clean error.
	if _, err := Align(p, AlignOptions{ResumePath: filepath.Join(dir, "nope")}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing resume file accepted")
	}
	// A checkpoint for the wrong method is a clean error.
	if _, err := Align(p, AlignOptions{Method: "mr", Iters: 4, ResumePath: ckpt}, &bytes.Buffer{}); err == nil {
		t.Fatal("bp checkpoint accepted by mr")
	}
}

func TestAlignTimeout(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 300, DBar: 4, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	start := time.Now()
	res, err := Align(p, AlignOptions{Method: "bp", Iters: 1_000_000, Timeout: 100 * time.Millisecond}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) >= 2*time.Second {
		t.Fatal("timeout did not bound the run")
	}
	if res.Stopped != core.StopDeadline {
		t.Fatalf("stopped = %v", res.Stopped)
	}
	if !strings.Contains(buf.String(), "stopped:      deadline") {
		t.Fatalf("missing deadline stop reason:\n%s", buf.String())
	}
}

func TestFaultAlignNumericStop(t *testing.T) {
	p, err := Generate(GenerateOptions{Type: "synthetic", N: 40, DBar: 3, Seed: 13}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the solver into a persistent numerical failure through the
	// same path main() uses, and check the distinguishable error.
	plan := faults.NewPlan(3).WithNaN(faults.NaNInjection{Step: core.BPStepDamping, Iter: 2})
	res, runErr := p.BPAlignCtx(context.Background(), core.BPOptions{Iterations: 6, Faults: plan})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Stopped != core.StopNumerics {
		t.Fatalf("stopped = %v", res.Stopped)
	}
	// The CLI wraps that outcome in ErrNumerics; emulate the check
	// main() performs.
	wrapped := fmt.Errorf("cli: %w after %d failure(s)", ErrNumerics, res.NumericFailures)
	if !errors.Is(wrapped, ErrNumerics) {
		t.Fatal("ErrNumerics not matchable with errors.Is")
	}
}
