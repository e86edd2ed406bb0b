package problemio

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

var updateV1 = flag.Bool("update-v1", false,
	"rewrite testdata/v1/*.ckpt with the version-1 reference writer")

// The committed version-1 checkpoints were written by writeCheckpointV1
// at iteration 10 of a 20-iteration approx-rounded run on
// testdata/v1/problem.na (n=40); regenerate them with
// `go test -run TestV1CheckpointTestdataResumes -update-v1`.
const (
	v1Iterations = 20
	v1At         = 10
)

func v1Options(method core.Method, resume *core.Checkpoint, ckpt func(*core.Checkpoint) error) core.Options {
	spec := matching.MatcherSpec{Name: "approx"}
	return core.Options{
		Method: method,
		BP: core.BPOptions{Iterations: v1Iterations, Threads: 1, Matcher: spec,
			Resume: resume, CheckpointEvery: v1At, CheckpointFunc: ckpt},
		MR: core.MROptions{Iterations: v1Iterations, Threads: 1, Matcher: spec,
			Resume: resume, CheckpointEvery: v1At, CheckpointFunc: ckpt},
	}
}

// v1Run solves testdata/v1/problem.na, optionally resuming, and
// returns the result JSON and every checkpoint taken, by iteration.
func v1Run(t *testing.T, method core.Method, resume *core.Checkpoint) ([]byte, map[int]*core.Checkpoint) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "v1", "problem.na"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Read(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := map[int]*core.Checkpoint{}
	res, err := p.Align(context.Background(), v1Options(method, resume, func(c *core.Checkpoint) error {
		ckpts[c.Iter] = c
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res.JSON())
	if err != nil {
		t.Fatal(err)
	}
	return out, ckpts
}

func mustEncode(t testing.TB, c *core.Checkpoint) []byte {
	t.Helper()
	b, err := encodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV1CheckpointTestdataResumes: each committed version-1 checkpoint
// reads back as exactly the state an uninterrupted run holds at
// iteration 10, and resuming from it reproduces that run's result and
// its iteration-20 checkpoint bit for bit.
func TestV1CheckpointTestdataResumes(t *testing.T) {
	for _, method := range []core.Method{core.MethodBP, core.MethodMR} {
		t.Run(method.String(), func(t *testing.T) {
			path := filepath.Join("testdata", "v1", method.String()+"-iter10.ckpt")
			want, wantCkpts := v1Run(t, method, nil)
			if *updateV1 {
				var buf bytes.Buffer
				if err := writeCheckpointV1(&buf, wantCkpts[v1At]); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("netalign-checkpoint 1\n")) {
				t.Fatalf("%s is not a version-1 checkpoint", path)
			}
			ck, err := ReadCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustEncode(t, ck), mustEncode(t, wantCkpts[v1At])) {
				t.Fatalf("%s does not hold the uninterrupted run's iteration-%d state", path, v1At)
			}
			got, gotCkpts := v1Run(t, method, ck)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed result differs:\n got %s\nwant %s", got, want)
			}
			if len(gotCkpts) != 1 || gotCkpts[v1Iterations] == nil {
				t.Fatalf("resumed run took checkpoints at %v, want only iteration %d", gotCkpts, v1Iterations)
			}
			if !bytes.Equal(mustEncode(t, gotCkpts[v1Iterations]), mustEncode(t, wantCkpts[v1Iterations])) {
				t.Fatalf("resumed iteration-%d checkpoint differs from the uninterrupted run's", v1Iterations)
			}
		})
	}
}
