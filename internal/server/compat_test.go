package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
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
