package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/problemio"
)

// legacySpec is the bare spec plus the three v1 fields that once chose
// an execution path (pipelined rounding, a row-permuted S, fused BP
// kernels). They are accepted and ignored.
func legacySpec(bare Spec) Spec {
	bare.Pipeline = true
	bare.Reorder = "rcm"
	bare.Fused = true
	return bare
}

func compatSpec() Spec {
	s := smallSpec()
	s.Threads = 2
	return s
}

// TestLegacyLayoutFieldsIgnored: a submission carrying "pipeline",
// "reorder" and "fused" is admitted, keys to the bare spec's cache key, and solves
// to byte-identical result bytes on a node that has never seen the
// bare spec.
func TestLegacyLayoutFieldsIgnored(t *testing.T) {
	bare, legacy := compatSpec(), legacySpec(compatSpec())
	bareKey, _, err := bare.CacheKey(1)
	if err != nil {
		t.Fatal(err)
	}
	legacyKey, _, err := legacy.CacheKey(1)
	if err != nil {
		t.Fatal(err)
	}
	if bareKey != legacyKey {
		t.Fatalf("cache key %s with pipeline/reorder/fused, %s without", legacyKey, bareKey)
	}
	want := baselineResult(t, bare)
	mgr, ts := newTestServer(t, Config{Workers: 1})
	id := submitOK(t, ts, legacy)
	waitState(t, ts, id, StateDone, 30*time.Second)
	if got := rawResult(t, mgr, id); !bytes.Equal(got, want) {
		t.Fatal("result with pipeline/reorder/fused differs from the bare spec's")
	}
}

// TestLegacyReorderStillValidated: an unknown reorder value is still a
// 400 bad_request with the message it always had.
func TestLegacyReorderStillValidated(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := compatSpec()
	spec.Reorder = "bogus"
	resp, body := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body %s: %v", body, err)
	}
	const msg = `server: bad job spec: unknown reorder mode "bogus" (want none, auto, degree or rcm)`
	if env.Error.Code != "bad_request" || env.Error.Message != msg {
		t.Fatalf("error {%s, %q}, want {bad_request, %q}", env.Error.Code, env.Error.Message, msg)
	}
}

// TestLegacyJobRecordRecovers restarts on a spool holding a queued
// job.json written before the layout and kernel knobs were removed
// (spec with "pipeline": true, "reorder": "rcm" and "fused": true) and
// checks that the job completes with the bare spec's result bytes.
func TestLegacyJobRecordRecovers(t *testing.T) {
	const id = "03a2a51617e9680f"
	spool := t.TempDir()
	src := filepath.Join("testdata", "legacy-layout-spool", id)
	if err := os.MkdirAll(filepath.Join(spool, id), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"job.json", "problem.txt"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(spool, id, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := baselineResult(t, compatSpec())
	mgr, ts := newTestServer(t, Config{Spool: spool, Workers: 1})
	waitState(t, ts, id, StateDone, 30*time.Second)
	if j, ok := mgr.Get(id); !ok || !j.Spec.Pipeline || j.Spec.Reorder != "rcm" || !j.Spec.Fused {
		t.Errorf("recovered job lost its record or its legacy spec fields")
	}
	if got := rawResult(t, mgr, id); !bytes.Equal(got, want) {
		t.Fatal("recovered legacy job's result differs from the bare spec's")
	}
}

// The version-1 BP checkpoint committed for the problemio tests was
// written at iteration 10 of smallSpec's 20-iteration solve of the
// legacy spool's problem.
var (
	v1ProblemPath    = filepath.Join("testdata", "legacy-layout-spool", "03a2a51617e9680f", "problem.txt")
	v1CheckpointPath = filepath.Join("..", "problemio", "testdata", "v1", "bp-iter10.ckpt")
)

func readTestdata(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkResumedAt10 checks that the node ran only iterations 11..20 of
// its one job, so the result came from the checkpoint and not from a
// rerun that discarded it.
func checkResumedAt10(t *testing.T, mgr *Manager) {
	t.Helper()
	if n := mgr.timer.Count(core.BPStepOthermax); n != 10 {
		t.Fatalf("node ran %d BP iterations, want the 10 after the checkpoint", n)
	}
}

// TestV1CheckpointSpoolResumes restarts on a spool holding a queued
// job.json, its problem.txt and a version-1 checkpoint.ckpt, as an
// older node left it, and checks that the job resumes from iteration 10
// to the same result bytes as a fresh run.
func TestV1CheckpointSpoolResumes(t *testing.T) {
	const id = "7c41d2e8a90b3f56"
	spool := t.TempDir()
	if err := os.MkdirAll(filepath.Join(spool, id), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"job.json":        filepath.Join("testdata", "v1-checkpoint-spool", id, "job.json"),
		"problem.txt":     v1ProblemPath,
		"checkpoint.ckpt": v1CheckpointPath,
	} {
		if err := os.WriteFile(filepath.Join(spool, id, name), readTestdata(t, src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := baselineResult(t, smallSpec())
	mgr, ts := newTestServer(t, Config{Spool: spool, Workers: 1})
	waitState(t, ts, id, StateDone, 30*time.Second)
	checkResumedAt10(t, mgr)
	if got := rawResult(t, mgr, id); !bytes.Equal(got, want) {
		t.Fatal("job resumed from a version-1 checkpoint differs from a fresh run")
	}
}

// TestV1CheckpointHandoffResumes posts a handoff from an older node,
// carrying a version-1 checkpoint, and checks that the job resumes from
// iteration 10 to the same result bytes as a fresh run.
func TestV1CheckpointHandoffResumes(t *testing.T) {
	const id = "2e9b47c1d05a6f38"
	want := baselineResult(t, smallSpec())
	mgr, ts := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(&HandoffJob{
		ID: id, Spec: smallSpec(), Created: time.Now(),
		Problem:    readTestdata(t, v1ProblemPath),
		Checkpoint: readTestdata(t, v1CheckpointPath),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/handoff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("handoff: status %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, id, StateDone, 30*time.Second)
	checkResumedAt10(t, mgr)
	if got := rawResult(t, mgr, id); !bytes.Equal(got, want) {
		t.Fatal("handed-off job resumed from a version-1 checkpoint differs from a fresh run")
	}
}

// TestMismatchedCheckpointReruns: a spool checkpoint that parses but
// belongs to another method or problem is treated like an unreadable
// one. The job reruns from scratch to the fresh result, charging no
// attempt, instead of failing every retry until it is quarantined.
func TestMismatchedCheckpointReruns(t *testing.T) {
	const id = "7c41d2e8a90b3f56"
	other := &core.Checkpoint{
		Method: "bp", Alpha: 1, Beta: 2, NA: 3, NB: 4, EL: 5, NNZ: 2,
		Y: make([]float64, 5), Z: make([]float64, 5), SK: make([]float64, 2),
		Tighten: 1,
	}
	var otherProblem bytes.Buffer
	if err := problemio.WriteCheckpoint(&otherProblem, other); err != nil {
		t.Fatal(err)
	}
	want := baselineResult(t, smallSpec())
	for name, ckpt := range map[string][]byte{
		"mr checkpoint":   readTestdata(t, filepath.Join("..", "problemio", "testdata", "v1", "mr-iter10.ckpt")),
		"another problem": otherProblem.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			spool := t.TempDir()
			if err := os.MkdirAll(filepath.Join(spool, id), 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range map[string][]byte{
				"job.json":        readTestdata(t, filepath.Join("testdata", "v1-checkpoint-spool", id, "job.json")),
				"problem.txt":     readTestdata(t, v1ProblemPath),
				"checkpoint.ckpt": ckpt,
			} {
				if err := os.WriteFile(filepath.Join(spool, id, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mgr, ts := newTestServer(t, Config{Spool: spool, Workers: 1})
			st := waitState(t, ts, id, StateDone, 30*time.Second)
			if st.Attempts != 0 {
				t.Errorf("attempts = %d, want 0", st.Attempts)
			}
			if got := rawResult(t, mgr, id); !bytes.Equal(got, want) {
				t.Fatal("rerun after a mismatched checkpoint differs from a fresh run")
			}
			if n := mgr.Snapshot().CheckpointsDiscarded; n != 1 {
				t.Errorf("checkpoints discarded = %d, want 1", n)
			}
		})
	}
}
