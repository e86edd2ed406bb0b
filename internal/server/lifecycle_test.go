package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netalignmc/internal/core"
	"netalignmc/internal/faults"
	"netalignmc/internal/problemio"
)

// retryCfg is a manager config with near-instant backoff so retry
// tests run in milliseconds.
func retryCfg() Config {
	return Config{
		Workers: 1, RetryBudget: 2,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
	}
}

// baselineResult runs spec uninjected on a fresh manager and returns
// the raw result.json bytes — the reference for bit-identical checks.
func baselineResult(t *testing.T, spec Spec) []byte {
	t.Helper()
	mgr, ts := newTestServer(t, Config{Workers: 1})
	id := submitOK(t, ts, spec)
	waitState(t, ts, id, StateDone, 30*time.Second)
	data, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRetryDelayDeterministic(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	cases := []struct {
		id      string
		attempt int
	}{
		{"0123456789abcdef", 1},
		{"0123456789abcdef", 2},
		{"0123456789abcdef", 3},
		{"0123456789abcdef", 10},
		{"0123456789abcdef", 100},
		{"fedcba9876543210", 1},
		{"fedcba9876543210", 4},
		{"00000000deadbeef", 7},
	}
	for _, tc := range cases {
		got := RetryDelay(tc.id, tc.attempt, base, max)
		if again := RetryDelay(tc.id, tc.attempt, base, max); again != got {
			t.Errorf("RetryDelay(%s, %d) not deterministic: %s then %s", tc.id, tc.attempt, got, again)
		}
		// Unjittered exponential value the jitter scales.
		exp := base
		for i := 1; i < tc.attempt && exp < max; i++ {
			exp *= 2
		}
		if exp > max {
			exp = max
		}
		lo := time.Duration(0.75 * float64(exp))
		hi := time.Duration(1.25 * float64(exp))
		if got < lo || got > hi {
			t.Errorf("RetryDelay(%s, %d) = %s outside jitter band [%s, %s]", tc.id, tc.attempt, got, lo, hi)
		}
		if got > max {
			t.Errorf("RetryDelay(%s, %d) = %s exceeds max %s", tc.id, tc.attempt, got, max)
		}
	}
	// The jitter must actually decorrelate different jobs at the same
	// attempt (same delay for everyone would re-land failure bursts as
	// bursts).
	a := RetryDelay("0123456789abcdef", 2, base, max)
	b := RetryDelay("fedcba9876543210", 2, base, max)
	c := RetryDelay("00000000deadbeef", 2, base, max)
	if a == b && b == c {
		t.Errorf("jitter produced identical delays %s for three distinct ids", a)
	}
}

// TestRetryRecoversTransientFault: a one-shot injected I/O error on
// the result persist fails the first attempt; the retry resumes and
// completes with the attempt on record and a bit-identical result.
func TestRetryRecoversTransientFault(t *testing.T) {
	want := baselineResult(t, smallSpec())
	restore := faults.SetActive(faults.NewPlan(1).WithIO("spool:write:result.json", faults.IOErr, 1))
	defer restore()
	mgr, ts := newTestServer(t, retryCfg())
	id := submitOK(t, ts, smallSpec())
	st := waitState(t, ts, id, StateDone, 30*time.Second)
	if st.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", st.Attempts)
	}
	got, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("retried result differs from uninjected baseline")
	}
	if n := mgr.Snapshot().Retried; n != 1 {
		t.Errorf("retried counter = %d, want 1", n)
	}
}

// TestQuarantineAfterBudget: a persistent fault exhausts the retry
// budget and quarantines the job; the quarantine listing finds it;
// clearing the fault and requeueing completes it bit-identically.
func TestQuarantineAfterBudget(t *testing.T) {
	want := baselineResult(t, smallSpec())
	restore := faults.SetActive(faults.NewPlan(1).WithIO("spool:write:result.json", faults.IONoSpace, 0))
	cleared := false
	defer func() {
		if !cleared {
			restore()
		}
	}()
	mgr, ts := newTestServer(t, retryCfg())
	id := submitOK(t, ts, smallSpec())
	st := waitState(t, ts, id, StateQuarantined, 30*time.Second)
	if st.Attempts != 3 { // budget 2: attempts 1 and 2 retry, 3 quarantines
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	if !strings.Contains(st.Error, "retry budget exhausted") {
		t.Errorf("error %q does not name the exhausted budget", st.Error)
	}

	// The operator listing: ?state=quarantined finds it, a bogus state
	// is a 400.
	resp, err := http.Get(ts.URL + "/v1/jobs?state=quarantined")
	if err != nil {
		t.Fatal(err)
	}
	var list []*JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("quarantined listing = %+v, want exactly job %s", list, id)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?state=bogus: status %d, want 400", resp.StatusCode)
	}

	// Clear the fault and requeue: the job reruns from its spool record
	// and completes bit-identically to an undisturbed run.
	restore()
	cleared = true
	resp, err = http.Post(ts.URL+"/v1/jobs/"+id+"/requeue", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rq JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&rq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("requeue: status %d", resp.StatusCode)
	}
	if rq.Attempts != 0 {
		t.Errorf("requeued attempts = %d, want 0 (fresh budget)", rq.Attempts)
	}
	waitState(t, ts, id, StateDone, 30*time.Second)
	got, err := mgr.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("requeued result differs from uninjected baseline")
	}

	// Requeueing a non-quarantined job is a 409.
	resp, err = http.Post(ts.URL+"/v1/jobs/"+id+"/requeue", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("requeue of done job: status %d, want 409", resp.StatusCode)
	}
	m := mgr.Snapshot()
	if m.Quarantined != 1 || m.Requeued != 1 {
		t.Errorf("counters quarantined=%d requeued=%d, want 1/1", m.Quarantined, m.Requeued)
	}
}

// TestCrashLoopQuarantine: a job found mid-running across
// CrashLoopLimit consecutive daemon restarts is quarantined by
// recovery instead of requeued; a stale (non-consecutive) incarnation
// resets the streak.
func TestCrashLoopQuarantine(t *testing.T) {
	spool := t.TempDir()
	store, err := NewStore(spool)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	p, err := spec.BuildProblem(1)
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := problemio.Write(&pb, p); err != nil {
		t.Fatal(err)
	}
	const id = "00000000000000aa"
	if err := store.CreateJob(id); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveProblemBytes(id, pb.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The job looks crashed mid-run before the first "restart".
	if err := store.SaveMeta(&Meta{
		ID: id, Spec: spec, State: StateRunning, Created: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}

	const limit = 3
	newMgr := func() *Manager {
		mgr, err := NewManager(Config{Spool: spool, Workers: 1, CrashLoopLimit: limit, RetryBudget: -1})
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	shutdown := func(mgr *Manager) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}
	for restart := 1; restart <= limit; restart++ {
		mgr := newMgr()
		j, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("restart %d: job lost", restart)
		}
		st := j.Status()
		shutdown(mgr)
		if restart < limit {
			if st.State == StateQuarantined {
				t.Fatalf("restart %d: quarantined before the limit (%d)", restart, limit)
			}
			// Re-stage the crash: mark it running under the incarnation
			// that just shut down, as if the daemon died mid-run again.
			meta, err := store.LoadMeta(id)
			if err != nil {
				t.Fatal(err)
			}
			if meta.CrashRuns != restart {
				t.Fatalf("restart %d: persisted crashRuns = %d, want %d", restart, meta.CrashRuns, restart)
			}
			meta.State = StateRunning
			meta.Incarnation = store.LoadIncarnation()
			if err := store.SaveMeta(meta); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if st.State != StateQuarantined {
			t.Fatalf("restart %d: state %s (error %q), want quarantined", restart, st.State, st.Error)
		}
		if !strings.Contains(st.Error, "crash loop") {
			t.Errorf("quarantine error %q does not name the crash loop", st.Error)
		}
	}

	// A stale incarnation (daemon restarts in between where this job
	// was not mid-running) resets the streak: high CrashRuns with an
	// old incarnation must not quarantine.
	const id2 = "00000000000000bb"
	if err := store.CreateJob(id2); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveProblemBytes(id2, pb.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveMeta(&Meta{
		ID: id2, Spec: spec, State: StateRunning, Created: time.Now(),
		CrashRuns: 7, Incarnation: 1, // stale: many restarts ago
	}); err != nil {
		t.Fatal(err)
	}
	mgr := newMgr()
	j, ok := mgr.Get(id2)
	if !ok {
		t.Fatal("stale-incarnation job lost")
	}
	if st := j.Status(); st.State == StateQuarantined {
		t.Errorf("stale incarnation quarantined (error %q); streak should have reset", st.Error)
	}
	shutdown(mgr)
}

func TestWatchProgressStall(t *testing.T) {
	var beat atomic.Int64
	var stalls atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		watchProgress(ctx, time.Millisecond, 20*time.Millisecond, beat.Load, func() {
			stalls.Add(1)
			cancel() // what the manager's onStall does: cancel the run
		})
		close(done)
	}()
	// Healthy phase: advancing beats hold the watchdog off well past
	// the timeout.
	for i := 0; i < 15; i++ {
		beat.Add(1)
		time.Sleep(5 * time.Millisecond)
	}
	if stalls.Load() != 0 {
		t.Fatal("watchdog fired while the counter was advancing")
	}
	// Stall: stop advancing and the watchdog must fire exactly once.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired on a stalled counter")
	}
	if n := stalls.Load(); n != 1 {
		t.Fatalf("onStall called %d times, want 1", n)
	}
}

func TestWatchProgressCtxCancel(t *testing.T) {
	var beat atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		watchProgress(ctx, time.Millisecond, time.Hour, beat.Load, func() {
			t.Error("onStall fired after ctx cancel")
		})
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not exit on ctx cancel")
	}
}

func TestStallTimeoutFor(t *testing.T) {
	cases := []struct {
		base time.Duration
		nnz  int
		want time.Duration
	}{
		{0, 1 << 30, 0},                         // disabled stays disabled
		{time.Minute, 0, time.Minute},           // small problem: base
		{time.Minute, 1<<20 - 1, time.Minute},   // just under the scale step
		{time.Minute, 1 << 20, 2 * time.Minute}, // one step up
		{time.Minute, 2_500_000, 3 * time.Minute},
	}
	for _, tc := range cases {
		if got := stallTimeoutFor(tc.base, tc.nnz); got != tc.want {
			t.Errorf("stallTimeoutFor(%s, %d) = %s, want %s", tc.base, tc.nnz, got, tc.want)
		}
	}
}

// TestPressureDiskLevels drives the pressure monitor through
// ok → degraded → refusing → ok with an injected disk probe and checks
// the degraded-mode side effects at each level.
func TestPressureDiskLevels(t *testing.T) {
	var free atomic.Int64
	free.Store(10_000)
	spool := t.TempDir()
	mgr, err := NewManager(Config{
		Spool: spool, Workers: 1,
		MinDiskBytes:  1000,
		PressureEvery: time.Hour, // test drives sample() directly
		DiskFreeProbe: func(string) (int64, error) { return free.Load(), nil },
		CacheBytes:    1 << 20,
		CacheDir:      filepath.Join(spool, "cache"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()

	mgr.pressure.sample(mgr)
	if mgr.pressure.ckptStretch() != 1 || !mgr.cache.DiskEnabled() {
		t.Fatal("healthy disk: expected stretch 1 and cache disk tier on")
	}

	// Degraded band [min, 2·min): cache disk tier off, checkpoints
	// stretched, but submissions still admitted.
	free.Store(1500)
	mgr.pressure.sample(mgr)
	if got := mgr.pressure.ckptStretch(); got != ckptStretchFactor {
		t.Errorf("degraded stretch = %d, want %d", got, ckptStretchFactor)
	}
	if mgr.cache.DiskEnabled() {
		t.Error("degraded: cache disk tier still on")
	}
	if _, err := mgr.Submit(smallSpec()); err != nil {
		t.Errorf("degraded level must still admit: %v", err)
	}

	// Below the floor: refuse.
	free.Store(500)
	mgr.pressure.sample(mgr)
	if _, err := mgr.Submit(smallSpec()); !errors.Is(err, ErrDiskPressure) {
		t.Errorf("refusing level Submit err = %v, want ErrDiskPressure", err)
	}
	m := mgr.Snapshot()
	if m.DiskPressure != int(diskRefuse) || m.RefusedDisk != 1 || m.DiskFreeBytes != 500 {
		t.Errorf("snapshot diskPressure=%d refused=%d free=%d, want 2/1/500",
			m.DiskPressure, m.RefusedDisk, m.DiskFreeBytes)
	}

	// Recovery: everything back to normal.
	free.Store(10_000)
	mgr.pressure.sample(mgr)
	if mgr.pressure.ckptStretch() != 1 || !mgr.cache.DiskEnabled() {
		t.Error("cleared pressure: expected stretch 1 and cache disk tier back on")
	}
	if _, err := mgr.Submit(smallSpec()); err != nil {
		t.Errorf("cleared pressure must admit: %v", err)
	}
}

// TestPressureMemoryShed: over the RSS budget, submissions get a 429
// with a Retry-After hint; under it they are admitted again.
func TestPressureMemoryShed(t *testing.T) {
	var rss atomic.Int64
	rss.Store(100)
	mgr, ts := newTestServer(t, Config{
		Workers: 1, MaxRSSBytes: 1000,
		PressureEvery: time.Hour,
		RSSProbe:      func() (int64, error) { return rss.Load(), nil },
	})
	mgr.pressure.sample(mgr)
	submitOK(t, ts, smallSpec())

	rss.Store(5000)
	mgr.pressure.sample(mgr)
	resp, body := postJob(t, ts, smallSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit: status %d body %s, want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("shed body %s does not carry the overloaded code", body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 120 {
		t.Errorf("Retry-After %q, want an integer in [1, 120]", resp.Header.Get("Retry-After"))
	}
	if m := mgr.Snapshot(); !m.MemPressure || m.ShedMemory != 1 {
		t.Errorf("snapshot memPressure=%v shed=%d, want true/1", m.MemPressure, m.ShedMemory)
	}

	rss.Store(100)
	mgr.pressure.sample(mgr)
	submitOK(t, ts, smallSpec())
}

// TestCheckpointFaultLeavesPreviousValid: an injected ENOSPC (and a
// short write) during a checkpoint write must fail that write while
// the previously renamed checkpoint stays fully readable.
func TestCheckpointFaultLeavesPreviousValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	first := &core.Checkpoint{
		Method: "bp", Iter: 3, Alpha: 1, Beta: 2,
		NA: 2, NB: 2, EL: 2, NNZ: 2,
		Y: []float64{1, 2}, Z: []float64{3, 4}, SK: []float64{5, 6},
		GammaK: 0.5,
	}
	if err := problemio.WriteCheckpointFile(path, first); err != nil {
		t.Fatal(err)
	}
	second := *first
	second.Iter = 4
	second.Y = []float64{9, 9}

	for _, tc := range []struct {
		name string
		kind faults.IOKind
	}{
		{"enospc", faults.IONoSpace},
		{"short-write", faults.IOShortWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := faults.SetActive(faults.NewPlan(1).WithIO("checkpoint:write", tc.kind, 1))
			err := problemio.WriteCheckpointFile(path, &second)
			restore()
			if err == nil {
				t.Fatal("faulted checkpoint write reported success")
			}
			if tc.kind == faults.IONoSpace && !errors.Is(err, faults.ErrNoSpace) {
				t.Errorf("err = %v, want ErrNoSpace in the chain", err)
			}
			got, err := problemio.ReadCheckpointFile(path)
			if err != nil {
				t.Fatalf("previous checkpoint unreadable after faulted write: %v", err)
			}
			if got.Iter != first.Iter || got.Y[0] != first.Y[0] {
				t.Errorf("previous checkpoint content changed: iter %d y0 %v", got.Iter, got.Y[0])
			}
		})
	}
}

// TestRetryCancelDuringBackoff: cancelling a job while it waits out a
// retry backoff finalizes it cancelled instead of leaving it parked.
func TestRetryCancelDuringBackoff(t *testing.T) {
	restore := faults.SetActive(faults.NewPlan(1).WithIO("spool:write:result.json", faults.IOErr, 0))
	defer restore()
	_, ts := newTestServer(t, Config{
		Workers: 1, RetryBudget: 100,
		RetryBaseDelay: 30 * time.Second, RetryMaxDelay: time.Minute,
	})
	id := submitOK(t, ts, smallSpec())
	// Wait until the first failure parks the job in backoff (queued
	// with attempts > 0).
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == StateQueued && st.Attempts > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never entered retry backoff (state %s attempts %d)", st.State, st.Attempts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, id, StateCancelled, 10*time.Second)
}

// TestTerminalStateVisibleOnlyOnceCounted pauses the worker inside the
// terminal SaveMeta, after the done record reached the spool, and
// checks that a reader who sees the job done also sees it counted in
// the completed total: finish bumps the outcome counter before the
// terminal state becomes visible, not after persisting it.
func TestTerminalStateVisibleOnlyOnceCounted(t *testing.T) {
	mgr, err := NewManager(Config{Spool: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()
	store := mgr.Store()
	paused := make(chan struct{})
	release := make(chan struct{})
	var pausedOnce, releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	// The hook runs inside every job.json write and takes no manager
	// lock; it pauses the first write that leaves a done record.
	store.SetCrashHook(func(point string) error {
		if point != "after-rename:job.json" {
			return nil
		}
		ids, err := store.ListJobs()
		if err != nil {
			return nil
		}
		for _, id := range ids {
			if meta, err := store.LoadMeta(id); err == nil && meta.State == StateDone {
				pausedOnce.Do(func() {
					close(paused)
					<-release
				})
			}
		}
		return nil
	})
	j, err := mgr.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-paused:
	case <-time.After(30 * time.Second):
		t.Fatalf("job never wrote its done record (state %s)", j.Status().State)
	}
	if st := j.Status().State; st != StateDone {
		t.Fatalf("job reads %s while its done record is being written", st)
	}
	if got := mgr.Snapshot().Completed; got < 1 {
		t.Fatalf("job reads done while completed = %d", got)
	}
	releaseOnce.Do(func() { close(release) })
}
