package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"netalignmc/internal/faults"
)

// stubSender delivers handoffs straight into a destination manager,
// standing in for the cluster transport.
type stubSender struct {
	dst  *Manager
	node string
	fail bool

	mu   sync.Mutex
	sent []*HandoffJob
}

func (s *stubSender) Handoff(ctx context.Context, h *HandoffJob) (string, error) {
	if s.fail {
		return "", errors.New("stub: no peer available")
	}
	if s.dst != nil {
		if _, err := s.dst.AdmitHandoff(h); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	s.sent = append(s.sent, h)
	s.mu.Unlock()
	return s.node, nil
}

// handoffSpec is slow enough to still be mid-run when the drain lands
// but finite enough to complete within the test budget.
func handoffSpec(seed int64) Spec {
	return Spec{
		Method: "bp", Iterations: 400, Batch: 1, Approx: true, Threads: 1,
		ProgressEvery: 1, CheckpointEvery: 2,
		Generator: &GeneratorSpec{N: 120, DBar: 4, Seed: seed},
	}
}

// waitCheckpoint blocks until a job's checkpoint file exists, so a
// subsequent drain hands off a mid-run snapshot rather than a
// never-started job.
func waitCheckpoint(t *testing.T, mgr *Manager, id string) {
	t.Helper()
	path := mgr.Store().CheckpointPath(id)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint for %s after 30s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainHandoffBitIdentical is the proactive-drain contract end to
// end: a draining manager exports its interrupted running job (with
// checkpoint) and its queued job to the sender; the receiver admits
// both under their original ids, resumes, and produces result bytes
// identical to undisturbed baselines; the local copies are tombstoned
// handed_off and the counters on both sides agree.
func TestDrainHandoffBitIdentical(t *testing.T) {
	runSpec := handoffSpec(5)
	queuedSpec := handoffSpec(6)
	wantRun := baselineResult(t, runSpec)
	wantQueued := baselineResult(t, queuedSpec)

	recvMgr, recvTS := newTestServer(t, Config{Workers: 2})
	sender := &stubSender{dst: recvMgr, node: "http://peer.example"}

	src, err := NewManager(Config{Spool: t.TempDir(), Workers: 1, Handoff: sender})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = src.Shutdown(ctx)
	})
	jRun, err := src.Submit(runSpec)
	if err != nil {
		t.Fatal(err)
	}
	jQueued, err := src.Submit(queuedSpec) // parked behind the single worker
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, src, jRun.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := jRun.Status(); st.State == StateDone {
		t.Skip("running job finished before the drain landed; nothing to hand off")
	}

	for _, j := range []*Job{jRun, jQueued} {
		st := j.Status()
		if st.State != StateHandedOff {
			t.Fatalf("job %s state = %s, want handed_off", j.ID, st.State)
		}
		if st.HandedOffTo != sender.node {
			t.Errorf("job %s handedOffTo = %q, want %q", j.ID, st.HandedOffTo, sender.node)
		}
	}
	if n := src.Snapshot().HandoffSent; n != 2 {
		t.Errorf("HandoffSent = %d, want 2", n)
	}

	// The interrupted job traveled with its checkpoint; the receiver
	// admits it as a resume.
	sender.mu.Lock()
	var runHandoff *HandoffJob
	for _, h := range sender.sent {
		if h.ID == jRun.ID {
			runHandoff = h
		}
	}
	sender.mu.Unlock()
	if runHandoff == nil {
		t.Fatal("running job never reached the sender")
	}
	if len(runHandoff.Checkpoint) == 0 {
		t.Error("handed-off running job carries no checkpoint")
	}

	st := waitState(t, recvTS, jRun.ID, StateDone, 120*time.Second)
	if st.Resumes == 0 {
		t.Error("receiver ran the checkpointed job without counting a resume")
	}
	waitState(t, recvTS, jQueued.ID, StateDone, 120*time.Second)
	gotRun, err := recvMgr.Result(jRun.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRun, wantRun) {
		t.Errorf("handed-off resumed result differs from baseline (%d vs %d bytes)",
			len(gotRun), len(wantRun))
	}
	gotQueued, err := recvMgr.Result(jQueued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotQueued, wantQueued) {
		t.Errorf("handed-off queued result differs from baseline (%d vs %d bytes)",
			len(gotQueued), len(wantQueued))
	}
	if n := recvMgr.Snapshot().HandoffReceived; n != 2 {
		t.Errorf("receiver HandoffReceived = %d, want 2", n)
	}
}

// TestHandedOffTombstoneSurvivesRestart proves the no-double-run
// guarantee: a restart over the drained spool recovers handed-off jobs
// as terminal tombstones — nothing requeues, nothing runs, and requeue
// is refused like any other non-quarantined terminal job.
func TestHandedOffTombstoneSurvivesRestart(t *testing.T) {
	recvMgr, _ := newTestServer(t, Config{Workers: 1})
	sender := &stubSender{dst: recvMgr, node: "http://peer.example"}

	spool := t.TempDir()
	src, err := NewManager(Config{Spool: spool, Workers: 1, Handoff: sender})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := src.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued := longSpec()
	queued.Generator.Seed = 99
	jQueued, err := src.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := src.Snapshot().HandoffSent; n != 2 {
		t.Fatalf("HandoffSent = %d, want 2 (blocker parks queued and exports too)", n)
	}

	restarted, err := NewManager(Config{Spool: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = restarted.Shutdown(ctx)
	})
	for _, id := range []string{blocker.ID, jQueued.ID} {
		j, ok := restarted.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		st := j.Status()
		if st.State != StateHandedOff {
			t.Errorf("recovered job %s state = %s, want handed_off", id, st.State)
		}
		if st.HandedOffTo != sender.node {
			t.Errorf("recovered job %s handedOffTo = %q, want %q", id, st.HandedOffTo, sender.node)
		}
		if _, err := restarted.Requeue(id); !errors.Is(err, ErrNotQuarantined) {
			t.Errorf("Requeue(%s) = %v, want ErrNotQuarantined", id, err)
		}
	}
	m := restarted.Snapshot()
	if m.QueueDepth != 0 || m.Running != 0 {
		t.Errorf("restart re-runs handed-off jobs: depth %d running %d, want 0/0",
			m.QueueDepth, m.Running)
	}
}

// TestHandoffFailureKeepsJobQueued: when no peer accepts, the drain
// degrades to the plain behavior — jobs stay queued in the spool and
// the next startup runs them. Nothing is lost.
func TestHandoffFailureKeepsJobQueued(t *testing.T) {
	spool := t.TempDir()
	src, err := NewManager(Config{Spool: spool, Workers: 1, Handoff: &stubSender{fail: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Submit(longSpec()); err != nil { // occupies the worker
		t.Fatal(err)
	}
	small := smallSpec()
	jQueued, err := src.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := src.Snapshot().HandoffFailed; n != 2 {
		t.Errorf("HandoffFailed = %d, want 2", n)
	}
	if st := jQueued.Status(); st.State != StateQueued {
		t.Fatalf("refused handoff left job %s in %s, want queued", jQueued.ID, st.State)
	}

	restarted, err := NewManager(Config{Spool: spool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = restarted.Shutdown(ctx)
	})
	j, ok := restarted.Get(jQueued.ID)
	if !ok {
		t.Fatalf("queued job %s lost across restart", jQueued.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := j.Status()
		if st.State == StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("recovered job reached %s (error %q), want done", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job still %s, want done", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmitHandoffGates pins the receiver's admission contract:
// malformed ids, invalid specs and empty problems are rejected as bad
// specs; a draining node refuses; redelivery of a known id is
// idempotent.
func TestAdmitHandoffGates(t *testing.T) {
	// Harvest canonical problem bytes from a real job so the admitted
	// copy is runnable.
	origin, originTS := newTestServer(t, Config{Workers: 1})
	spec := smallSpec()
	originID := submitOK(t, originTS, spec)
	waitState(t, originTS, originID, StateDone, 30*time.Second)
	problem, err := origin.Store().LoadProblemBytes(originID)
	if err != nil {
		t.Fatal(err)
	}

	mgr, ts := newTestServer(t, Config{Workers: 1})
	valid := &HandoffJob{ID: "00112233aabbccdd", Spec: spec, Problem: problem}

	if _, err := mgr.AdmitHandoff(&HandoffJob{ID: "not-a-job-id", Spec: spec, Problem: problem}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("malformed id: %v, want ErrBadSpec", err)
	}
	if _, err := mgr.AdmitHandoff(&HandoffJob{ID: valid.ID, Spec: Spec{Method: "bp"}, Problem: problem}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("invalid spec: %v, want ErrBadSpec", err)
	}
	if _, err := mgr.AdmitHandoff(&HandoffJob{ID: valid.ID, Spec: spec}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("empty problem: %v, want ErrBadSpec", err)
	}

	st, err := mgr.AdmitHandoff(valid)
	if err != nil {
		t.Fatalf("valid handoff refused: %v", err)
	}
	if st.ID != valid.ID {
		t.Errorf("admitted id %s, want %s", st.ID, valid.ID)
	}
	// Redelivery (the sender retried after a lost 202) returns the
	// job's current status without admitting a second copy.
	st2, err := mgr.AdmitHandoff(valid)
	if err != nil {
		t.Fatalf("redelivery refused: %v", err)
	}
	if st2.ID != valid.ID {
		t.Errorf("redelivery returned id %s, want %s", st2.ID, valid.ID)
	}
	m := mgr.Snapshot()
	if m.HandoffReceived != 1 || m.Submitted != 1 {
		t.Errorf("counters after redelivery: received %d submitted %d, want 1/1", m.HandoffReceived, m.Submitted)
	}
	waitState(t, ts, valid.ID, StateDone, 30*time.Second)

	// A draining node refuses new handoffs outright.
	drained, _ := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drained.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := drained.AdmitHandoff(&HandoffJob{ID: "ffeeddccbbaa9988", Spec: spec, Problem: problem}); !errors.Is(err, ErrDraining) {
		t.Errorf("draining node: %v, want ErrDraining", err)
	}
}

// TestAdmitHandoffRefusesTombstone pins the rolling-drain ping-pong
// guard: a node that gave a job away in an earlier drain (and holds
// only a handed_off tombstone, recovered across a restart) must refuse
// a handoff of the same id. Accepting would make the current sender
// tombstone its live copy too, leaving the job terminal on both nodes
// and never run.
func TestAdmitHandoffRefusesTombstone(t *testing.T) {
	recvMgr, _ := newTestServer(t, Config{Workers: 1})
	sender := &stubSender{dst: recvMgr, node: "http://peer.example"}

	spool := t.TempDir()
	src, err := NewManager(Config{Spool: spool, Workers: 1, Handoff: sender})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Submit(longSpec()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	sender.mu.Lock()
	if len(sender.sent) != 1 {
		sender.mu.Unlock()
		t.Fatalf("sender saw %d handoffs, want 1", len(sender.sent))
	}
	h := sender.sent[0]
	sender.mu.Unlock()

	// Restart over the drained spool: the tombstone is recovered. The
	// receiver later drains in turn and offers the job straight back.
	restarted, err := NewManager(Config{Spool: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = restarted.Shutdown(ctx)
	})
	if _, err := restarted.AdmitHandoff(h); !errors.Is(err, ErrAlreadyHandedOff) {
		t.Fatalf("AdmitHandoff onto tombstone: %v, want ErrAlreadyHandedOff", err)
	}
	// A node holding a live copy keeps answering redelivery
	// idempotently; only tombstones refuse.
	st, err := recvMgr.AdmitHandoff(h)
	if err != nil {
		t.Fatalf("redelivery to live copy refused: %v", err)
	}
	if st.State == StateHandedOff {
		t.Fatalf("live copy reported handed_off")
	}
}

// TestHandoffTombstoneWriteFailureStaysQueued: when the handed_off
// tombstone cannot be persisted, the job must not claim handed_off in
// memory while the spool still says queued (the next startup would
// recover and re-run a job the successor owns, with the in-process
// view disagreeing the whole time). The in-memory state rolls back to
// queued to match the spool, and the attempt counts as a handoff
// failure, not a send.
func TestHandoffTombstoneWriteFailureStaysQueued(t *testing.T) {
	spool := t.TempDir()
	src, err := NewManager(Config{Spool: spool, Workers: 1, Handoff: &stubSender{node: "http://peer.example"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Submit(longSpec()); err != nil { // occupies the worker
		t.Fatal(err)
	}
	jQueued, err := src.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Arm a persistent job.json write fault only now — the submissions
	// above already spooled their records; from here every tombstone
	// write fails, as a disk dying exactly at drain time would.
	restore := faults.SetActive(faults.NewPlan(1).WithIO("spool:write:job.json", faults.IOErr, 0))
	t.Cleanup(restore)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := src.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m := src.Snapshot()
	if m.HandoffSent != 0 {
		t.Errorf("HandoffSent = %d, want 0 (no tombstone reached disk)", m.HandoffSent)
	}
	if m.HandoffFailed != 2 {
		t.Errorf("HandoffFailed = %d, want 2", m.HandoffFailed)
	}
	if st := jQueued.Status(); st.State != StateQueued {
		t.Fatalf("job %s in-memory state = %s, want queued (matching the spool)", jQueued.ID, st.State)
	}
	restore()
	meta, err := src.Store().LoadMeta(jQueued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != StateQueued {
		t.Fatalf("job %s spool state = %s, want queued", jQueued.ID, meta.State)
	}
}

// TestDrainCancelsPoppedJob is the regression test for the window
// between a worker popping a job and run marking it running: a
// Shutdown whose running-job scan lands there sees the job neither
// queued nor running. The job must still be cancelled and parked
// queued for the next startup, instead of making the drain wait out
// the whole solve.
func TestDrainCancelsPoppedJob(t *testing.T) {
	mgr, err := NewManager(Config{Spool: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	popped := make(chan struct{})
	release := make(chan struct{})
	releaseWorker := sync.OnceFunc(func() { close(release) })
	mgr.betweenPopAndRun = func(*Job) {
		close(popped)
		<-release
	}
	j, err := mgr.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// On failure the run outlives the drain: stop it and the
		// workers before the spool directory is removed.
		releaseWorker()
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		_ = mgr.Shutdown(ctx)
		mgr.wg.Wait()
	})
	select {
	case <-popped:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never popped the job")
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- mgr.Shutdown(ctx)
	}()
	// Shutdown sets closed and scans for running jobs in one m.mu
	// section, so once closed is visible under m.mu the scan is over.
	for closed := false; !closed; {
		mgr.mu.Lock()
		closed = mgr.closed
		mgr.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	releaseWorker()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v (the popped job was never cancelled)", err)
	}
	if st := j.Status(); st.State != StateQueued || st.Resumes != 1 {
		t.Fatalf("popped job is %s with %d resumes, want queued with 1", st.State, st.Resumes)
	}
}
