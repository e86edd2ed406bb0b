package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"netalignmc/internal/cluster"
	"netalignmc/internal/core"
	"netalignmc/internal/server"
)

// Client and load-generator settings (see README.md, "Serve client").
const (
	// clientConns caps the client's connections to the router at the
	// host's two CPUs.
	clientConns = 2
	pollEvery   = 10 * time.Millisecond
	// maxLate is how late the generator may send a job before the run
	// is invalid: beyond it the offered load is no longer the schedule.
	maxLate = 50 * time.Millisecond
)

// node is one in-process netalignd: netalignd's defaults except one
// worker of one thread, with peer cache fill and drain handoff pointed
// at the other node, as scripts/cluster_smoke.sh starts them.
type node struct {
	spool string
	mgr   *server.Manager
	pf    *cluster.PeerFiller
	srv   *http.Server
}

// deployment is a router in front of two nodes, all served over
// loopback HTTP from this process.
type deployment struct {
	url    string
	router *cluster.Router
	rsrv   *http.Server
	nodes  []*node
	served sync.WaitGroup

	stopOnce sync.Once
	stopErr  error
}

// startDeployment starts two nodes spooling under dir and the router,
// wrapping every handler in tr's span recorder.
func startDeployment(dir string, tr *tracer) (*deployment, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	d := &deployment{url: urls[2]}
	fail := func(err error) (*deployment, error) {
		for _, l := range lns[len(d.nodes):] {
			l.Close()
		}
		return nil, errors.Join(err, d.stop())
	}
	peers := urls[:2]
	for i, self := range peers {
		spool := filepath.Join(dir, fmt.Sprintf("node-%d", i))
		pf := cluster.NewPeerFiller(cluster.PeerFillConfig{Self: self, Peers: peers})
		pf.Start()
		mgr, err := server.NewManager(server.Config{
			Spool: spool, Workers: 1, Threads: 1, QueueDepth: 16, CheckpointEvery: 10,
			CacheBytes: 64 << 20, CacheDir: filepath.Join(spool, "cache"),
			RetryBudget: 3, StallTimeout: 2 * time.Minute, CrashLoopLimit: 3,
			PeerFiller: pf, Handoff: pf,
		})
		if err != nil {
			pf.Stop()
			return fail(err)
		}
		n := &node{spool: spool, mgr: mgr, pf: pf, srv: &http.Server{
			Handler:           tr.wrap("node", server.NewServer(mgr)),
			ReadHeaderTimeout: 10 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}}
		d.nodes = append(d.nodes, n)
		d.serve(n.srv, lns[i])
	}
	// netalignrouter's defaults.
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Peers: peers, ProbeEvery: time.Second, ProbeTimeout: 2 * time.Second,
		HedgeAfter: 250 * time.Millisecond,
	})
	if err != nil {
		return fail(err)
	}
	router.Start()
	d.router = router
	d.rsrv = &http.Server{Handler: tr.wrap("router", router), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	d.serve(d.rsrv, lns[2])
	return d, nil
}

func (d *deployment) serve(srv *http.Server, ln net.Listener) {
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
}

// stop shuts the router down, then each node in netalignd's order
// (drain the manager, then its HTTP server), and waits for every
// server goroutine. Later calls return the first call's error.
func (d *deployment) stop() error {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var errs []error
		if d.rsrv != nil {
			errs = append(errs, d.rsrv.Shutdown(ctx))
			d.router.Stop()
		}
		for _, n := range d.nodes {
			errs = append(errs, n.mgr.Shutdown(ctx), n.srv.Shutdown(ctx))
			n.pf.Stop()
		}
		d.served.Wait()
		d.stopErr = errors.Join(errs...)
	})
	return d.stopErr
}

// snapshots returns every node's counters.
func (d *deployment) snapshots() []server.Metrics {
	out := make([]server.Metrics, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.mgr.Snapshot()
	}
	return out
}

// client is the load's HTTP client: every request goes to the router.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, IdleConnTimeout: 90 * time.Second,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobResult is one job as the client saw it.
type jobResult struct {
	id      string
	latency time.Duration // from the scheduled send to the result read
	polls   int
	status  server.JobStatus // the last status read
	result  []byte
	err     error
}

// request sends one request and returns its body, recording a client
// span for job; want is the status code that counts as success.
func (c *client) request(route, job, method, path string, body []byte, want int) ([]byte, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, start, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, start, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if job != "" {
		c.tr.record("client."+route, job, start, time.Now())
	}
	return data, start, err
}

// run submits body, polls the job every pollEvery until it is terminal
// (a submission admitted already done skips polling), then reads its
// result. Latency runs from due, the job's scheduled send time.
func (c *client) run(body []byte, due time.Time) jobResult {
	var jr jobResult
	data, sent, err := c.request("submit", "", http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	if err == nil {
		err = json.Unmarshal(data, &jr.status)
	}
	if err != nil {
		jr.err = fmt.Errorf("submit: %w", err)
		return jr
	}
	jr.id = jr.status.ID
	c.tr.record("client.submit", jr.id, sent, time.Now())
	for !jr.status.State.Terminal() {
		time.Sleep(pollEvery)
		jr.polls++
		data, _, err := c.request("status", jr.id, http.MethodGet, "/v1/jobs/"+jr.id, nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(data, &jr.status)
		}
		if err != nil {
			jr.err = fmt.Errorf("job %s: status: %w", jr.id, err)
			return jr
		}
	}
	if jr.result, _, err = c.request("result", jr.id, http.MethodGet, "/v1/jobs/"+jr.id+"/result", nil, http.StatusOK); err != nil {
		jr.err = fmt.Errorf("job %s: result: %w", jr.id, err)
		return jr
	}
	end := time.Now()
	jr.latency = end.Sub(due)
	c.tr.record("client.job", jr.id, due, end)
	return jr
}

// arrivals returns the send offsets of n jobs in [0, period): a
// Poisson process conditioned on its count, drawn as sorted uniform
// times from seed.
func arrivals(seed int64, n int, period time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(period))
	}
	slices.Sort(at)
	return at
}

// drive is the open-loop generator: from the calling goroutine it
// starts job k's goroutine at origin+at[k], whatever the service is
// doing, then waits for every job. It also returns how late, at worst,
// it started a job.
func drive(c *client, bodies [][]byte, at []time.Duration) ([]jobResult, time.Duration) {
	results := make([]jobResult, len(at))
	var wg sync.WaitGroup
	late := time.Duration(0)
	origin := time.Now()
	for k := range at {
		due := origin.Add(at[k])
		time.Sleep(time.Until(due))
		late = max(late, time.Since(due))
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			results[k] = c.run(bodies[k], due)
		}(k, due)
	}
	wg.Wait()
	return results, late
}

// serveInputs are a serve run's generated requests.
type serveInputs struct {
	jobs [][]byte // the body of each measured job
	pick []int    // the problem each measured job carries
	// warmup are the bodies sent during set-up: every distinct problem
	// of a repeat workload, one extra problem otherwise.
	warmup [][]byte
	// problems holds a repeat workload's distinct problems.
	problems []*core.Problem
}

// inputs generates the bodies of n measured jobs and the warm-up.
func (w workload) inputs(seed int64, n int) (*serveInputs, error) {
	count := w.distinct
	if count == 0 {
		count = n + 1 // the last problem is the warm-up job
	}
	bodies := make([][]byte, count)
	in := &serveInputs{pick: make([]int, n), jobs: make([][]byte, n)}
	for i := range bodies {
		p, err := w.problem(seed, i)
		if err != nil {
			return nil, err
		}
		if bodies[i], err = w.body(p); err != nil {
			return nil, err
		}
		if w.distinct > 0 {
			in.problems = append(in.problems, p)
		}
	}
	if w.distinct == 0 {
		for k := range in.jobs {
			in.jobs[k], in.pick[k] = bodies[k], k
		}
		in.warmup = bodies[n:]
		return in, nil
	}
	in.warmup = bodies
	rng := rand.New(rand.NewSource(seed + 1))
	for k := range in.jobs {
		in.pick[k] = rng.Intn(w.distinct)
		in.jobs[k] = bodies[in.pick[k]]
	}
	return in, nil
}

// runServe runs a serve workload: set up (generate every job body,
// start the deployment, send the warm-up jobs) setupRepeats times,
// then offer the measured jobs at w.rate for the measured period.
func runServe(w workload, seed int64, seconds time.Duration, traced bool, dir string) (*outcome, *tracer, error) {
	n := int(math.Round(w.rate * seconds.Seconds()))
	at := arrivals(seed, n, seconds)
	var (
		d      *deployment
		in     *serveInputs
		tr     *tracer
		warm   []jobResult
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
			d, in, warm = nil, nil, nil // let the previous set-up's memory go first
		}
		runtime.GC()
		if traced {
			tr = newTracer()
		}
		t0 := time.Now()
		var err error
		if in, err = w.inputs(seed, n); err != nil {
			return nil, nil, err
		}
		if d, err = startDeployment(filepath.Join(dir, fmt.Sprintf("setup-%d", k)), tr); err != nil {
			return nil, nil, err
		}
		c := newClient(d.url, tr)
		// All warm-up jobs at once, so both nodes solve.
		warm, _ = drive(c, in.warmup, make([]time.Duration, len(in.warmup)))
		c.close()
		for i, r := range warm {
			if r.err == nil && r.status.State != server.StateDone {
				r.err = fmt.Errorf("job %s ended %s: %s", r.id, r.status.State, r.status.Error)
			}
			if r.err != nil {
				return nil, nil, errors.Join(fmt.Errorf("%s: warm-up job %d: %w", w.name, i, r.err), d.stop())
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	c := newClient(d.url, tr)
	defer c.close()
	before := d.snapshots()
	spansBefore := 0
	if tr != nil {
		spansBefore = len(tr.snapshot())
	}
	cpu0 := cpuTime()
	results, late := drive(c, in.jobs, at)
	cpu := cpuTime() - cpu0
	after := d.snapshots()

	o := newOutcome()
	o.attempted = n
	lat := make([]float64, 0, n)
	for k, r := range results {
		if err := w.checkJob(seed, k, r, in, warm); err != nil {
			o.fail("job %d: %v", k, err)
			continue
		}
		lat = append(lat, ms(r.latency))
	}
	if late > maxLate {
		o.fail("invalid run: the generator sent a job %v late (limit %v)", late, maxLate)
	}
	if !supportsPercentile(len(lat), 0.9) {
		fmt.Fprintf(os.Stderr, "benchmark: %d jobs are too few for a p90 with %d samples beyond it\n", len(lat), minBeyond)
	}

	if !traced {
		o.values["latency_ms_p50"] = median(lat)
		o.values["latency_ms_p90"] = quantile(lat, 0.9)
		o.values["cpu_ms_per_op"] = ms(cpu) / float64(n)
		o.values["setup_s"] = median(setups)
		o.values["peak_rss_mb"] = peakRSSMiB()
		return o, nil, nil
	}

	spans := tr.snapshot()
	serveLayers(o.values, spans, append(warm, results...), results, before, after, d)
	o.values["loadgen.late_ms_max"] = ms(late)
	o.values["trace.overhead_pct"] = traceOverheadPct(len(spans)-spansBefore, 0, cpu)
	if err := d.stop(); err != nil {
		return nil, nil, err
	}

	// The solver and request layers, timed on this workload's own jobs
	// outside the service.
	p, err := w.problem(seed, in.pick[0])
	if err != nil {
		return nil, nil, err
	}
	if err := solverLayers(o.values, w, p, 1, nil); err != nil {
		return nil, nil, err
	}
	bodies := in.warmup
	if w.distinct == 0 {
		bodies = in.jobs[:min(len(in.jobs), 8)]
	}
	if err := requestLayers(o.values, w, dir, bodies, warm[0].result); err != nil {
		return nil, nil, err
	}
	return o, tr, nil
}

// checkJob verifies measured job k: it finished done after its whole
// iteration budget with a matching on L whose objective, recomputed on
// the benchmark's own copy of the problem, is the reported one. Every
// tenth job of a unique workload must also equal a direct Align, and a
// repeat workload's results must be byte-identical to its warm-up's.
func (w workload) checkJob(seed int64, k int, r jobResult, in *serveInputs, warm []jobResult) error {
	if r.err != nil {
		return r.err
	}
	if r.status.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", r.id, r.status.State, r.status.Error)
	}
	var doc core.ResultJSON
	if err := json.Unmarshal(r.result, &doc); err != nil {
		return fmt.Errorf("job %s: decode result: %w", r.id, err)
	}
	if w.distinct > 0 {
		if !bytes.Equal(r.result, warm[in.pick[k]].result) {
			return fmt.Errorf("job %s: result differs from the warm-up result of problem %d", r.id, in.pick[k])
		}
		return w.checkResult(in.problems[in.pick[k]], &doc)
	}
	p, err := w.problem(seed, in.pick[k])
	if err != nil {
		return err
	}
	if err := w.checkResult(p, &doc); err != nil {
		return fmt.Errorf("job %s: %w", r.id, err)
	}
	if k%10 != 0 {
		return nil
	}
	res, err := p.Align(context.Background(), w.options(runtime.GOMAXPROCS(0), nil))
	if err != nil {
		return fmt.Errorf("job %s: direct align: %w", r.id, err)
	}
	if res.Objective != doc.Objective || !slices.Equal(res.Matching.MateA, doc.MateA) {
		return fmt.Errorf("job %s: objective %v, a direct Align gives %v", r.id, doc.Objective, res.Objective)
	}
	return nil
}

// serveProbe sends body through a fresh deployment twice, one job
// after the other: the first solves, the second hits the cache. It
// gives a solve workload's traced run the service's per-layer metrics
// on that workload's problem p.
func serveProbe(o *outcome, w workload, dir string, body []byte, p *core.Problem, tr *tracer) error {
	d, err := startDeployment(filepath.Join(dir, "probe"), tr)
	if err != nil {
		return err
	}
	c := newClient(d.url, tr)
	before := d.snapshots()
	var jobs []jobResult
	late := time.Duration(0)
	for i := 0; i < 2; i++ {
		rs, l := drive(c, [][]byte{body}, []time.Duration{0})
		r := rs[0]
		late = max(late, l)
		o.attempted++
		var doc core.ResultJSON
		switch {
		case r.err != nil:
			o.fail("probe job %d: %v", i, r.err)
		case r.status.State != server.StateDone:
			o.fail("probe job %s ended %s: %s", r.id, r.status.State, r.status.Error)
		default:
			if err := json.Unmarshal(r.result, &doc); err != nil {
				o.fail("probe job %s: decode result: %v", r.id, err)
			} else if err := w.checkResult(p, &doc); err != nil {
				o.fail("probe job %s: %v", r.id, err)
			}
		}
		jobs = append(jobs, r)
	}
	after := d.snapshots()
	c.close()
	serveLayers(o.values, tr.snapshot(), jobs, jobs, before, after, d)
	o.values["loadgen.late_ms_max"] = ms(late)
	return d.stop()
}

// serveLayers computes the service's per-layer metrics: span medians,
// queue and run times from the job statuses of every job that ran
// (all), client counts over the measured jobs, and node counter deltas
// between before and after.
func serveLayers(vals map[string]float64, spans []span, all, measured []jobResult, before, after []server.Metrics, d *deployment) {
	vals["router.submit_self_ms_p50"] = median(selfTimes(spans, "router.submit"))
	vals["router.get_self_ms_p50"] = median(selfTimes(spans, "router.status", "router.result"))
	vals["admit.submit_ms_p50"] = median(durations(spans, "node.submit"))
	vals["deliver.status_ms_p50"] = median(durations(spans, "node.status"))
	vals["deliver.result_ms_p50"] = median(durations(spans, "node.result"))

	var queue, run []float64
	for _, r := range all {
		if st := r.status; !st.Started.IsZero() {
			queue = append(queue, ms(st.Started.Sub(st.Created)))
			run = append(run, ms(st.Finished.Sub(st.Started)))
		}
	}
	vals["sched.queue_ms_p50"], vals["sched.queue_ms_mean"] = median(queue), mean(queue)
	vals["run.ms_p50"], vals["run.ms_mean"] = median(run), mean(run)

	polls, spooled := 0, int64(0)
	for _, r := range measured {
		polls += r.polls
		for _, n := range d.nodes {
			spooled += dirBytes(filepath.Join(n.spool, r.id))
		}
	}
	jobs := float64(len(measured))
	vals["deliver.polls_per_job"] = float64(polls) / jobs
	vals["store.bytes_per_job"] = float64(spooled) / jobs

	var submitted, maxNode, hits, probes int64
	for i := range after {
		sub := after[i].Submitted - before[i].Submitted
		submitted += sub
		maxNode = max(maxNode, sub)
		hits += after[i].CacheHits - before[i].CacheHits + after[i].Coalesced - before[i].Coalesced
		probes += after[i].PeerFill.Probes - before[i].PeerFill.Probes
	}
	vals["router.max_node_share"] = float64(maxNode) / float64(submitted)
	vals["cache.hit_ratio"] = float64(hits) / float64(submitted)
	vals["peerfill.probes_per_job"] = float64(probes) / jobs
}

// dirBytes returns the total size of the regular files directly in dir
// (zero when dir does not exist).
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
