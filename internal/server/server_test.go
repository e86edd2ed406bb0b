package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"netalignmc/internal/bipartite"
	"netalignmc/internal/core"
	"netalignmc/internal/matching"
)

// newTestServer starts a manager + HTTP API over a fresh spool.
func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Spool == "" {
		cfg.Spool = t.TempDir()
	}
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return mgr, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func submitOK(t *testing.T, ts *httptest.Server, spec any) string {
	t.Helper()
	resp, body := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: %v in %s", err, body)
	}
	if st.ID == "" {
		t.Fatalf("submit: empty job id in %s", body)
	}
	return st.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) *JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	st := &JobStatus{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (fatal on a different
// terminal state or timeout).
func waitState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s, want %s", id, st.State, timeout, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) *core.ResultJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("result %s: status %d body %s", id, resp.StatusCode, buf.String())
	}
	r := &core.ResultJSON{}
	if err := json.NewDecoder(resp.Body).Decode(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// smallSpec is a quick deterministic generator job.
func smallSpec() Spec {
	return Spec{
		Method: "bp", Iterations: 20, Approx: true, Threads: 1,
		ProgressEvery: 1,
		Generator:     &GeneratorSpec{N: 40, DBar: 3, Seed: 7},
	}
}

// longSpec runs effectively forever until cancelled.
func longSpec() Spec {
	return Spec{
		Method: "bp", Iterations: 1_000_000, Approx: true, Threads: 1,
		ProgressEvery: 1, CheckpointEvery: 2,
		Generator: &GeneratorSpec{N: 200, DBar: 5, Seed: 11},
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := submitOK(t, ts, smallSpec())
	st := waitState(t, ts, id, StateDone, 30*time.Second)
	if st.Method != "bp" {
		t.Errorf("method = %q, want bp", st.Method)
	}
	res := getResult(t, ts, id)
	if res.Stopped != core.StopMaxIter && !res.Converged {
		t.Errorf("unexpected stop: %+v", res)
	}
	if res.Matched <= 0 || len(res.MateA) != 40 {
		t.Errorf("matched=%d len(mateA)=%d, want a full-size matching", res.Matched, len(res.MateA))
	}
	if res.Objective <= 0 {
		t.Errorf("objective = %v, want > 0", res.Objective)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad method", `{"method":"lp","generator":{"n":10}}`, http.StatusBadRequest},
		{"no source", `{"method":"bp"}`, http.StatusBadRequest},
		{"two sources", `{"problem":"netalign 1\n", "generator":{"n":10}}`, http.StatusBadRequest},
		{"partial upload", `{"a":"x"}`, http.StatusBadRequest},
		{"unknown field", `{"metod":"bp"}`, http.StatusBadRequest},
		{"garbage problem", `{"problem":"not a problem"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	for _, path := range []string{"/v1/jobs/ffffffffffffffff", "/v1/jobs/ffffffffffffffff/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestQueueOverflowBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	running := submitOK(t, ts, longSpec())
	waitState(t, ts, running, StateRunning, 30*time.Second)
	queued := submitOK(t, ts, longSpec()) // fills the queue
	resp, body := postJob(t, ts, longSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancelling the queued job frees a slot; the next submit works.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", dresp.StatusCode)
	}
	if st := getStatus(t, ts, queued); st.State != StateCancelled {
		t.Fatalf("cancelled-while-queued job is %s, want cancelled", st.State)
	}
	// A job cancelled before running has no result.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + queued + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusNotFound {
		t.Errorf("result of cancelled-while-queued job: status %d, want 404", rresp.StatusCode)
	}
	if id := submitOK(t, ts, smallSpec()); id == "" {
		t.Fatal("submit after freeing the queue failed")
	}
	// Drain the still-running long job so cleanup is fast.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running, nil)
	dresp, _ = http.DefaultClient.Do(req)
	if dresp != nil {
		dresp.Body.Close()
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Type string
	Data []byte
}

// readSSE parses events off an event-stream body until stop returns
// true or the stream ends.
func readSSE(t *testing.T, body *bufio.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.Type != "":
			events = append(events, cur)
			done := stop(cur)
			cur = sseEvent{}
			if done {
				return events
			}
		}
	}
}

func TestCancelRunningStreamsEventsAndKeepsPartialResult(t *testing.T) {
	mgr, ts := newTestServer(t, Config{Workers: 1})
	id := submitOK(t, ts, longSpec())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}

	// Watch the stream until a few progress events arrive, then cancel
	// and keep reading until the terminal state event.
	var progress int
	var sawCancelled bool
	reader := bufio.NewReader(resp.Body)
	events := readSSE(t, reader, func(ev sseEvent) bool {
		switch ev.Type {
		case "progress":
			progress++
			if progress == 3 {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				dresp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return true
				}
				dresp.Body.Close()
			}
		case "state":
			var st JobStatus
			if err := json.Unmarshal(ev.Data, &st); err != nil {
				t.Errorf("bad state event %s: %v", ev.Data, err)
				return true
			}
			if st.State == StateCancelled {
				sawCancelled = true
				return true
			}
			if st.State.Terminal() {
				t.Errorf("job ended %s, want cancelled", st.State)
				return true
			}
		}
		return false
	})
	if progress < 3 {
		t.Fatalf("saw %d progress events (stream: %d events), want >= 3", progress, len(events))
	}
	if !sawCancelled {
		t.Fatalf("never saw the cancelled state event (stream: %d events)", len(events))
	}
	var ev core.ProgressEvent
	for _, e := range events {
		if e.Type == "progress" {
			if err := json.Unmarshal(e.Data, &ev); err != nil {
				t.Fatalf("bad progress event %s: %v", e.Data, err)
			}
			break
		}
	}
	if ev.Method != "bp" || ev.Iter < 1 {
		t.Errorf("first progress event = %+v", ev)
	}

	// The cancelled job still reports its best partial matching, and
	// that matching is valid on the job's own problem.
	st := waitState(t, ts, id, StateCancelled, 10*time.Second)
	if st.Iter < 3 {
		t.Errorf("status iter = %d, want >= 3", st.Iter)
	}
	res := getResult(t, ts, id)
	if res.Stopped != core.StopCancelled {
		t.Errorf("stopped = %q, want cancelled", res.Stopped)
	}
	p, err := mgr.Store().LoadProblem(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MateA) != p.L.NA {
		t.Fatalf("len(mateA) = %d, want NA = %d", len(res.MateA), p.L.NA)
	}
	m := matchingFromMateA(p.L, res.MateA)
	if err := m.Validate(p.L); err != nil {
		t.Errorf("partial matching invalid: %v", err)
	}
	if res.Matched <= 0 {
		t.Errorf("matched = %d, want > 0", res.Matched)
	}
}

// matchingFromMateA rebuilds a matching.Result from the serialized
// MateA array so it can be validated against L.
func matchingFromMateA(g *bipartite.Graph, mateA []int) *matching.Result {
	m := &matching.Result{
		MateA: append([]int(nil), mateA...),
		MateB: make([]int, g.NB),
	}
	for i := range m.MateB {
		m.MateB[i] = -1
	}
	for a, b := range mateA {
		if b < 0 {
			continue
		}
		m.MateB[b] = a
		m.Card++
		if e, ok := g.Find(a, b); ok {
			m.Weight += g.W[e]
		}
	}
	return m
}

func TestRestartResumeBitIdentical(t *testing.T) {
	spool := t.TempDir()
	spec := Spec{
		Method: "bp", Iterations: 400, Batch: 1, Approx: true, Threads: 1,
		ProgressEvery: 1, CheckpointEvery: 2,
		Generator: &GeneratorSpec{N: 120, DBar: 4, Seed: 5},
	}

	mgr1, err := NewManager(Config{Spool: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := j.ID

	// Wait until the job is mid-run with at least one checkpoint on
	// disk, then drain: the run stops at an iteration boundary and the
	// job goes back to queued.
	ckpt := mgr1.Store().CheckpointPath(id)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 30s; job state %s", j.Status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := mgr1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	meta, err := mgr1.Store().LoadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State == StateDone {
		t.Skip("job finished before the drain; nothing to resume")
	}
	if meta.State != StateQueued {
		t.Fatalf("drained job persisted as %s, want queued", meta.State)
	}

	// Restart on the same spool: recovery requeues and the worker
	// resumes from the checkpoint.
	mgr2, ts := newTestServer(t, Config{Spool: spool, Workers: 1})
	st := getStatus(t, ts, id)
	if st.Resumes < 1 {
		t.Errorf("resumes = %d, want >= 1", st.Resumes)
	}
	waitState(t, ts, id, StateDone, 60*time.Second)
	resumed := getResult(t, ts, id)

	// Reference: the identical solve, uninterrupted, on the job's
	// canonicalized problem.
	p, err := mgr2.Store().LoadProblem(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.BPAlignCtx(context.Background(), core.BPOptions{
		Iterations: spec.Iterations, Batch: 1, Threads: 1,
		Matcher: matching.MatcherSpec{Name: "approx"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Objective != ref.Objective {
		t.Errorf("resumed objective %v != uninterrupted %v", resumed.Objective, ref.Objective)
	}
	if resumed.MatchWeight != ref.MatchWeight || resumed.Overlap != ref.Overlap {
		t.Errorf("resumed weight/overlap %v/%v != uninterrupted %v/%v",
			resumed.MatchWeight, resumed.Overlap, ref.MatchWeight, ref.Overlap)
	}
	if len(resumed.MateA) != len(ref.Matching.MateA) {
		t.Fatalf("mateA length %d != %d", len(resumed.MateA), len(ref.Matching.MateA))
	}
	for a, b := range resumed.MateA {
		if ref.Matching.MateA[a] != b {
			t.Fatalf("MateA[%d] = %d, uninterrupted %d", a, b, ref.Matching.MateA[a])
		}
	}
	if resumed.BestIter != ref.BestIter || resumed.Iterations != ref.Iterations {
		t.Errorf("resumed bestIter/iterations %d/%d != uninterrupted %d/%d",
			resumed.BestIter, resumed.Iterations, ref.BestIter, ref.Iterations)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	mgr, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	id := submitOK(t, ts, smallSpec())
	waitState(t, ts, id, StateDone, 30*time.Second)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(mresp.Body)
	metrics := buf.String()
	for _, want := range []string{
		"netalignd_queue_depth 0",
		"netalignd_jobs_submitted_total 1",
		"netalignd_jobs_completed_total 1",
		"netalignd_solve_step_seconds",
		"netalignd_sched_pool_workers",
		"netalignd_sched_pool_regions_total",
		"netalignd_sched_spawn_regions_total",
		"netalignd_sched_shared_busy_fallbacks_total",
		"netalignd_sched_workers_busy",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// /readyz agrees while the node accepts work.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", rresp.StatusCode)
	}

	// Draining flips readyz to 503 and submissions to 503; healthz
	// stays 200 — liveness must survive the drain or an orchestrator
	// would kill the process mid-checkpoint.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness only)", hresp.StatusCode)
	}
	rresp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status string `json:"status"`
	}
	_ = json.NewDecoder(rresp.Body).Decode(&ready)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", rresp.StatusCode)
	}
	if ready.Status != "draining" {
		t.Errorf("readyz reason while draining: %q, want \"draining\"", ready.Status)
	}
	sresp, body := postJob(t, ts, smallSpec())
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d body %s, want 503", sresp.StatusCode, body)
	}
}

func TestResultConflictWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := submitOK(t, ts, longSpec())
	waitState(t, ts, id, StateRunning, 30*time.Second)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running: %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitState(t, ts, id, StateCancelled, 10*time.Second)

	// Cancel is idempotent on a terminal job.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK || st.State != StateCancelled {
		t.Errorf("second cancel: status %d state %s", dresp.StatusCode, st.State)
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitOK(t, ts, smallSpec()))
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone, 30*time.Second)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	seen := map[string]bool{}
	for _, st := range list {
		seen[st.ID] = true
		if st.State != StateDone {
			t.Errorf("job %s listed as %s", st.ID, st.State)
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("job %s missing from list", id)
		}
	}
}

func TestSpecValidateUnit(t *testing.T) {
	// The largest generator spec of each family validates; one step
	// past it does not.
	good := []Spec{
		smallSpec(),
		{Generator: &GeneratorSpec{}},
		{Generator: &GeneratorSpec{N: maxGenVertices, DBar: maxGenDBar, Perturb: 0.02}},
		{Generator: &GeneratorSpec{N: 100, DBar: maxGenDBar, Perturb: 0.4}},
		{Generator: &GeneratorSpec{Type: "synthetic", Perturb: 0.1}},
		{Generator: &GeneratorSpec{Type: "dmela-scere"}},
		{Generator: &GeneratorSpec{Type: "homo-musm", Scale: 1}},
		{Generator: &GeneratorSpec{Type: "lcsh-wiki", Scale: 0.05}},
		{Generator: &GeneratorSpec{Type: "lcsh-rameau", Scale: 0.02}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Method: "nope", Generator: &GeneratorSpec{N: 10}},
		{Method: "bp"},
		{Method: "bp", Iterations: -1, Generator: &GeneratorSpec{N: 10}},
		{Method: "bp", TimeoutSec: -1, Generator: &GeneratorSpec{N: 10}},
		{Method: "bp", Format: "hdf5", Generator: &GeneratorSpec{N: 10}},
		{Method: "bp", A: "x", B: "y"},
		{Method: "bp", Problem: "p", Generator: &GeneratorSpec{N: 10}},
		{Generator: &GeneratorSpec{N: maxGenVertices + 1}},
		{Generator: &GeneratorSpec{N: -1}},
		{Generator: &GeneratorSpec{DBar: maxGenDBar + 0.5}},
		{Generator: &GeneratorSpec{DBar: -1}},
		{Generator: &GeneratorSpec{Perturb: -0.01}},
		{Generator: &GeneratorSpec{Perturb: 0.11}},
		{Generator: &GeneratorSpec{N: maxGenVertices, Perturb: 0.021}},
		{Generator: &GeneratorSpec{Type: "nope"}},
		{Generator: &GeneratorSpec{Type: "dmela-scere", Scale: 1.5}},
		{Generator: &GeneratorSpec{Type: "homo-musm", Scale: -0.1}},
		{Generator: &GeneratorSpec{Type: "lcsh-wiki"}},
		{Generator: &GeneratorSpec{Type: "lcsh-wiki", Scale: 0.06}},
		{Generator: &GeneratorSpec{Type: "lcsh-rameau", Scale: 0.03}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestMRJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := smallSpec()
	spec.Method = "mr"
	id := submitOK(t, ts, spec)
	waitState(t, ts, id, StateDone, 30*time.Second)
	res := getResult(t, ts, id)
	if res.Objective <= 0 || res.Matched <= 0 {
		t.Errorf("mr result: %+v", res)
	}
	st := getStatus(t, ts, id)
	if st.Method != "mr" {
		t.Errorf("method = %q, want mr", st.Method)
	}
}
