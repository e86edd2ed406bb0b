package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/server"
)

// maxSubmitBytes mirrors the node's own body bound: the router must
// read the full submission to hash it, so it enforces the same cap the
// owner would.
const maxSubmitBytes = 64 << 20

// maxOwnerEntries bounds the router's id→node map. Jobs are
// short-lived relative to 64k entries; when the map fills, a quarter
// of it is evicted (arbitrary entries — a lost mapping only costs one
// fan-out Status lookup to rediscover the owner).
const maxOwnerEntries = 64 << 10

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Peers is the static backend list (base URLs).
	Peers []string
	// VNodes is the hash ring's virtual-node count (0 = default). Must
	// match the backends' -vnodes for peer-fill probe order to mirror
	// routing order.
	VNodes int
	// ProbeEvery is the health-probe interval (0 = 1s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one /readyz probe (0 = 2s).
	ProbeTimeout time.Duration
	// KeyThreads bounds problem-construction parallelism while hashing
	// a submission (0 = GOMAXPROCS). It cannot affect the key.
	KeyThreads int
	// HedgeAfter enables request hedging for idempotent GETs (status,
	// result, cache): when the owner has not answered within this
	// delay, the router issues a second request to the ring successor
	// and relays whichever succeeds first. 0 disables hedging. Set it
	// near the fleet's p95 read latency — low enough to cut tail
	// latency, high enough that hedges stay rare.
	HedgeAfter time.Duration
}

// Router is the cluster front door: a thin HTTP proxy over the
// netalignd /v1 API that consistent-hashes each submission onto its
// owning backend — so identical submissions land where their cached
// result or in-flight execution already lives — and forwards per-job
// routes (status, result, cancel, events) to wherever the job was
// admitted. It holds no job state beyond a bounded id→node map that
// can always be rebuilt by fan-out lookup; restarting the router
// loses nothing.
//
// Failover: a submission whose owner is unreachable or answers 503
// (draining, disk pressure) moves to the ring successor. 4xx answers
// — including 429 backpressure — are relayed verbatim: the owner is
// alive and its refusal is meaningful to the client, and rerouting a
// 429 would defeat per-node backpressure.
type Router struct {
	ring       *Ring
	monitor    *Monitor
	clients    map[string]*Client
	proxies    map[string]*httputil.ReverseProxy
	nodes      []string // all configured nodes, normalized, sorted
	httpc      *http.Client
	threads    int
	hedgeAfter time.Duration
	mux        *http.ServeMux

	mu    sync.Mutex
	owner map[string]string // job id → node base URL

	forwarded  map[string]*expvar.Int // per-node accepted submissions
	failovers  expvar.Int             // submissions moved past an unavailable owner
	unroutable expvar.Int             // submissions no node would take
	rebalances expvar.Int             // ring membership transitions
	ownerMiss  expvar.Int             // per-job requests resolved by fan-out
	hedged     expvar.Int             // secondary requests issued for slow/failed reads
	hedgeWins  expvar.Int             // hedged reads won by the secondary
}

// NewRouter builds the router; Start launches its health probes.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.KeyThreads <= 0 {
		cfg.KeyThreads = runtime.GOMAXPROCS(0)
	}
	seen := make(map[string]bool)
	var nodes []string
	for _, p := range cfg.Peers {
		if p = normalizeBase(p); p != "" && !seen[p] {
			seen[p] = true
			nodes = append(nodes, p)
		}
	}
	if len(nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one peer")
	}
	sort.Strings(nodes)

	r := &Router{
		ring:       NewRing(nodes, cfg.VNodes),
		clients:    make(map[string]*Client, len(nodes)),
		proxies:    make(map[string]*httputil.ReverseProxy, len(nodes)),
		nodes:      nodes,
		httpc:      defaultHTTPClient,
		threads:    cfg.KeyThreads,
		hedgeAfter: cfg.HedgeAfter,
		owner:      make(map[string]string),
		forwarded:  make(map[string]*expvar.Int, len(nodes)),
	}
	probeHTTP := &http.Client{Timeout: cfg.ProbeTimeout, Transport: defaultHTTPClient.Transport}
	for _, n := range nodes {
		c := NewClient(n)
		r.clients[n] = c
		u, err := url.Parse(n)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", n, err)
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		// FlushInterval -1 flushes every write immediately — required
		// for proxied SSE streams, harmless for everything else.
		proxy.FlushInterval = -1
		node := n
		proxy.ErrorHandler = func(w http.ResponseWriter, req *http.Request, err error) {
			r.monitor.MarkDown(node)
			writeRouterError(w, http.StatusBadGateway, "bad_gateway",
				"backend %s unreachable: %v", node, err)
		}
		r.proxies[n] = proxy
		r.forwarded[n] = new(expvar.Int)
	}
	probeClients := make(map[string]*Client, len(nodes))
	for _, n := range nodes {
		probeClients[n] = &Client{Base: n, HTTP: probeHTTP}
	}
	r.monitor = NewMonitor(nodes, cfg.ProbeEvery,
		func(node string) error { return probeClients[node].Ready() },
		func(up []string) {
			if r.ring.SetNodes(up) {
				r.rebalances.Add(1)
			}
		})

	r.mux = http.NewServeMux()
	for _, prefix := range []string{"/v1", ""} {
		r.mux.HandleFunc("POST "+prefix+"/jobs", r.handleSubmit)
		r.mux.HandleFunc("GET "+prefix+"/jobs", r.handleList)
		r.mux.HandleFunc("GET "+prefix+"/jobs/{id}", r.handleJob)
		r.mux.HandleFunc("GET "+prefix+"/jobs/{id}/result", r.handleJob)
		r.mux.HandleFunc("GET "+prefix+"/jobs/{id}/events", r.handleJob)
		r.mux.HandleFunc("POST "+prefix+"/jobs/{id}/requeue", r.handleJob)
		r.mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", r.handleJob)
		r.mux.HandleFunc("GET "+prefix+"/cache/{key}", r.handleCacheGet)
	}
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /readyz", r.handleReadyz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	return r, nil
}

// Start launches the health-probe loop; Stop ends it.
func (r *Router) Start() { r.monitor.Start() }

// Stop ends the health-probe loop.
func (r *Router) Stop() { r.monitor.Stop() }

// Ring exposes the routing ring (tests and diagnostics).
func (r *Router) Ring() *Ring { return r.ring }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// writeRouterError emits the same JSON error envelope the nodes use,
// so clients see one error shape whether a response came from a
// backend or from the router itself.
func writeRouterError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	type detail struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	_ = enc.Encode(struct {
		Error detail `json:"error"`
	}{detail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// routeKey computes the submission's routing key: its content address
// when the spec is cacheable (the same cache.Key the owning node will
// compute, so the submission lands on its cached result), otherwise a
// hash of the raw body (stable, but with no affinity to preserve).
func (r *Router) routeKey(spec *server.Spec, body []byte) []byte {
	if key, _, err := spec.CacheKey(r.threads); err == nil {
		return key[:]
	}
	// Invalid or uncacheable spec: route it somewhere deterministic and
	// let the owner produce the authoritative rejection.
	h := fnv.New64a()
	_, _ = h.Write(body)
	sum := h.Sum64()
	return []byte{byte(sum >> 56), byte(sum >> 48), byte(sum >> 40), byte(sum >> 32),
		byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}
}

// handleSubmit reads the submission once, hashes it onto the ring, and
// forwards the raw body to the owner — failing over to ring successors
// when a node is unreachable or answers 503. Any other answer (202,
// 400, 413, 429) is relayed verbatim.
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, maxSubmitBytes)
	body, err := io.ReadAll(req.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeRouterError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"job body exceeds %d bytes", mbe.Limit)
			return
		}
		writeRouterError(w, http.StatusBadRequest, "bad_request", "read job body: %v", err)
		return
	}
	var spec server.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeRouterError(w, http.StatusBadRequest, "bad_request", "decode job spec: %v", err)
		return
	}
	key := r.routeKey(&spec, body)

	candidates := r.ring.Successors(key, 0)
	if len(candidates) == 0 {
		r.unroutable.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, "unroutable", "no backend is up")
		return
	}
	for i, node := range candidates {
		resp, err := r.httpc.Post(node+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			// Transport failure: demote immediately so concurrent
			// requests stop waiting out their own dial timeouts.
			r.monitor.MarkDown(node)
			r.failovers.Add(1)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && i < len(candidates)-1 {
			// Draining or disk pressure: the successor can take it. The
			// last candidate's 503 is relayed — there is no one left.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			r.failovers.Add(1)
			continue
		}
		r.relaySubmit(w, resp, node)
		return
	}
	r.unroutable.Add(1)
	writeRouterError(w, http.StatusServiceUnavailable, "unroutable",
		"all %d candidate backends unavailable", len(candidates))
}

// relaySubmit copies a backend's submit response to the client
// verbatim, recording the job's owner on a 202.
func (r *Router) relaySubmit(w http.ResponseWriter, resp *http.Response, node string) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, "bad_gateway",
			"backend %s: read submit response: %v", node, err)
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		var st server.JobStatus
		if json.Unmarshal(body, &st) == nil && st.ID != "" {
			r.recordOwner(st.ID, node)
		}
		r.forwarded[node].Add(1)
	}
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// recordOwner remembers which node admitted a job, evicting a quarter
// of the map when it fills.
func (r *Router) recordOwner(id, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.owner) >= maxOwnerEntries {
		drop := maxOwnerEntries / 4
		for k := range r.owner {
			delete(r.owner, k)
			if drop--; drop <= 0 {
				break
			}
		}
	}
	r.owner[id] = node
}

// resolveOwner finds the node holding a job: the owner map first, then
// a parallel fan-out Status lookup across every configured node (the
// map is bounded and the router may have restarted).
func (r *Router) resolveOwner(id string) (string, bool) {
	r.mu.Lock()
	node, ok := r.owner[id]
	r.mu.Unlock()
	if ok {
		return node, true
	}
	r.ownerMiss.Add(1)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		found string
	)
	for _, n := range r.nodes {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			if _, err := r.clients[n].Status(id); err == nil {
				mu.Lock()
				if found == "" {
					found = n
				}
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	if found == "" {
		return "", false
	}
	r.recordOwner(id, found)
	return found, true
}

// handleJob serves any per-job route. Mutations and the SSE stream
// (cancel, requeue, events) proxy raw to the job's owning node, so
// streams, headers and error envelopes pass through untouched.
// Idempotent GETs (status, result) relay through relayJobGet instead:
// hedged against the ring successor when HedgeAfter is set, and in
// either mode following a handed_off tombstone status one hop to the
// node that admitted the job in a drain — which both cuts read tail
// latency and heals stale owner mappings even when the drained node
// is back up and answering its tombstones with 200s.
func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	node, ok := r.resolveOwner(id)
	if !ok {
		writeRouterError(w, http.StatusNotFound, "not_found", "job %s not found on any backend", id)
		return
	}
	if req.Method == http.MethodGet && !strings.HasSuffix(req.URL.Path, "/events") {
		r.relayJobGet(w, req, id, node)
		return
	}
	r.proxies[node].ServeHTTP(w, req)
}

// jobGet issues one per-job GET to a node, preserving the client's
// path, query string and request headers — a hedged or direct relay
// read must be indistinguishable from a proxied one to the backend.
func (r *Router) jobGet(ctx context.Context, req *http.Request, node string) (*http.Response, error) {
	target := node + req.URL.Path
	if req.URL.RawQuery != "" {
		target += "?" + req.URL.RawQuery
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	hreq.Header = req.Header.Clone()
	return r.httpc.Do(hreq)
}

// relayJobGet answers an idempotent per-job GET: hedged between the
// recorded owner and a ring peer when hedging is enabled, a direct
// owner read otherwise. Both paths finish through finishJobGet, which
// follows drain tombstones.
func (r *Router) relayJobGet(w http.ResponseWriter, req *http.Request, id, node string) {
	if r.hedgeAfter > 0 {
		if peer, ok := r.hedgePeer(id, node); ok {
			r.hedgedRelay(w, req, id, node, peer)
			return
		}
	}
	resp, err := r.jobGet(req.Context(), req, node)
	if err != nil {
		r.monitor.MarkDown(node)
		writeRouterError(w, http.StatusBadGateway, "bad_gateway",
			"backend %s unreachable: %v", node, err)
		return
	}
	r.finishJobGet(w, req, id, node, resp)
}

// finishJobGet relays a per-job GET response, first following a drain
// tombstone one hop: a 200 on the plain status route whose body says
// handed_off names the node that admitted the job during the drain,
// so the router records that node as the owner and re-reads there —
// the client sees the live job, not the tombstone. One hop only: if
// the follow-up fails (or points at another tombstone), whatever the
// hop returned is relayed as-is rather than chasing a chain.
func (r *Router) finishJobGet(w http.ResponseWriter, req *http.Request, id, node string, resp *http.Response) {
	target, body, inspected := r.tombstoneTarget(req, resp, id, node)
	if !inspected {
		r.relayResponse(w, resp)
		return
	}
	// Inspection consumed the response body into body.
	resp.Body.Close()
	if target != "" {
		r.recordOwner(id, target)
		if fresh, err := r.jobGet(req.Context(), req, target); err == nil {
			r.relayResponse(w, fresh)
			return
		}
		r.monitor.MarkDown(target)
		// Fall through: the tombstone itself is still a truthful answer.
	}
	r.relayBuffered(w, resp, body)
}

// tombstoneTarget decides whether a per-job GET response needs
// tombstone inspection and, if so, consumes its body: a 200 on the
// plain status route decoding to a handed_off JobStatus yields the
// receiving node — normalized, and only when it is a configured peer
// other than the one that answered (a foreign or self-referential
// pointer is relayed untouched, never followed). inspected reports
// that the body was read and must be relayed via relayBuffered.
func (r *Router) tombstoneTarget(req *http.Request, resp *http.Response, id, node string) (target string, body []byte, inspected bool) {
	if resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/jobs/"+id) {
		return "", nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		// Partially consumed: must relay the buffered prefix, not the
		// stream.
		return "", body, true
	}
	var st server.JobStatus
	if json.Unmarshal(body, &st) != nil || st.State != server.StateHandedOff || st.HandedOffTo == "" {
		return "", body, true
	}
	t := normalizeBase(st.HandedOffTo)
	if t == node {
		return "", body, true
	}
	if _, known := r.clients[t]; !known {
		return "", body, true
	}
	return t, body, true
}

// hedgePeer picks the hedge target for a job read: the first up node
// other than the primary, in ring-successor order of the job id —
// the node a drain handoff of this job would have landed on when the
// job is uncacheable, and a deterministic healthy peer otherwise.
func (r *Router) hedgePeer(id, primary string) (string, bool) {
	for _, n := range r.ring.Successors([]byte(id), 0) {
		if n != primary && r.monitor.IsUp(n) {
			return n, true
		}
	}
	return "", false
}

// hedgeResult is one leg's outcome in a hedged read.
type hedgeResult struct {
	resp  *http.Response
	node  string
	err   error
	hedge bool
}

// hedgedRelay races a GET between the job's recorded owner and a ring
// peer. The primary fires immediately; the secondary fires after the
// hedge delay, or at once if the primary fails first (transport error
// or non-2xx — a 404 right after a drain handoff means "ask the
// successor now", not "wait out the timer"). First 2xx wins and is
// relayed; a secondary win updates the owner map so later reads go
// straight to the right node. When neither leg succeeds the primary's
// response is relayed verbatim (its refusal is the authoritative one),
// falling back to the secondary's, then to 502.
func (r *Router) hedgedRelay(w http.ResponseWriter, req *http.Request, id, primary, secondary string) {
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	results := make(chan hedgeResult, 2)
	fire := func(node string, hedge bool) {
		resp, err := r.jobGet(ctx, req, node)
		results <- hedgeResult{resp, node, err, hedge}
	}
	go fire(primary, false)
	timer := time.NewTimer(r.hedgeAfter)
	defer timer.Stop()
	timerC := timer.C
	launch := func() {
		timerC = nil
		r.hedged.Add(1)
		go fire(secondary, true)
	}
	var prim, sec hedgeResult
	outstanding := 1
	for outstanding > 0 {
		select {
		case <-timerC:
			launch()
			outstanding++
		case res := <-results:
			outstanding--
			if res.err == nil && res.resp.StatusCode >= 200 && res.resp.StatusCode < 300 {
				if res.hedge {
					r.hedgeWins.Add(1)
					r.recordOwner(id, res.node)
					closeHedge(prim)
				} else {
					closeHedge(sec)
				}
				drainHedge(results, outstanding)
				// A 2xx winner can still be a drain tombstone (the old
				// owner is back up and answers its handed_off status
				// with a 200); finishJobGet follows it to the live job.
				r.finishJobGet(w, req, id, res.node, res.resp)
				return
			}
			if res.err != nil {
				r.monitor.MarkDown(res.node)
			}
			if res.hedge {
				sec = res
			} else {
				prim = res
				if timerC != nil {
					launch()
					outstanding++
				}
			}
		}
	}
	switch {
	case prim.resp != nil:
		closeHedge(sec)
		r.relayResponse(w, prim.resp)
	case sec.resp != nil:
		r.relayResponse(w, sec.resp)
	default:
		writeRouterError(w, http.StatusBadGateway, "bad_gateway",
			"backends %s and %s unreachable: %v", primary, secondary, prim.err)
	}
}

// drainHedge disposes of the losing leg's eventual result so its
// connection is reusable; the winner's relay happens before the
// deferred cancel, so the loser is also aborted promptly.
func drainHedge(results <-chan hedgeResult, outstanding int) {
	if outstanding == 0 {
		return
	}
	go func() {
		for i := 0; i < outstanding; i++ {
			closeHedge(<-results)
		}
	}()
}

// closeHedge discards one leg's response body, if any.
func closeHedge(res hedgeResult) {
	if res.resp != nil {
		io.Copy(io.Discard, io.LimitReader(res.resp.Body, 1<<20))
		res.resp.Body.Close()
	}
}

// hopByHopHeaders are connection-scoped (RFC 9110 §7.6.1) and never
// forwarded.
var hopByHopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// copyResponseHeaders copies every end-to-end backend header, so a
// relayed read carries exactly what a proxied one would.
func copyResponseHeaders(dst, src http.Header) {
	for k, vv := range src {
		dst[k] = append([]string(nil), vv...)
	}
	for _, h := range hopByHopHeaders {
		dst.Del(h)
	}
}

// relayResponse streams a backend response to the client.
func (r *Router) relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyResponseHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// relayBuffered relays a response whose body was already consumed for
// tombstone inspection.
func (r *Router) relayBuffered(w http.ResponseWriter, resp *http.Response, body []byte) {
	copyResponseHeaders(w.Header(), resp.Header)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// handleList fans the listing out to every up node and merges the
// results newest-first — the same ordering each node uses. The
// state/tenant/class filters pass through verbatim; each node applies
// them locally so the router never pages full listings just to filter.
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	filter := server.ListFilter{
		State:  server.State(q.Get("state")),
		Tenant: q.Get("tenant"),
		Class:  q.Get("class"),
	}
	up := r.monitor.Up()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		merged []*server.JobStatus
	)
	for _, n := range up {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			list, err := r.clients[n].List(filter)
			if err != nil {
				return // a down node's jobs are simply absent
			}
			mu.Lock()
			merged = append(merged, list...)
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	sort.SliceStable(merged, func(i, j int) bool {
		return merged[i].Created.After(merged[j].Created)
	})
	if merged == nil {
		merged = []*server.JobStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(merged)
}

// handleCacheGet probes the key's ring successors for a cached result
// — the router-side face of peer fill, useful for warming and
// diagnostics. With hedging enabled the first two candidates race
// (the second starting after the hedge delay, or at once when the
// first misses); any remaining successors are probed sequentially.
func (r *Router) handleCacheGet(w http.ResponseWriter, req *http.Request) {
	key, err := cache.ParseKey(req.PathValue("key"))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	nodes := r.ring.Successors(key[:], 0)
	if r.hedgeAfter > 0 && len(nodes) >= 2 {
		if data, ok := r.hedgedCacheGet(req.Context(), key, nodes[0], nodes[1]); ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		nodes = nodes[2:]
	}
	for _, node := range nodes {
		data, err := r.clients[node].CacheGet(key)
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	writeRouterError(w, http.StatusNotFound, "cache_miss", "no cached result for %s", key)
}

// hedgedCacheGet races one cache lookup between the key's first two
// ring candidates: the primary fires immediately, the secondary after
// the hedge delay or as soon as the primary misses. First validated
// payload wins.
func (r *Router) hedgedCacheGet(reqCtx context.Context, key cache.Key, primary, secondary string) ([]byte, bool) {
	ctx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	type cacheRes struct {
		data  []byte
		err   error
		hedge bool
	}
	results := make(chan cacheRes, 2)
	fire := func(node string, hedge bool) {
		data, err := r.clients[node].CacheGetCtx(ctx, key)
		results <- cacheRes{data, err, hedge}
	}
	go fire(primary, false)
	timer := time.NewTimer(r.hedgeAfter)
	defer timer.Stop()
	timerC := timer.C
	launch := func() {
		timerC = nil
		r.hedged.Add(1)
		go fire(secondary, true)
	}
	outstanding := 1
	for outstanding > 0 {
		select {
		case <-timerC:
			launch()
			outstanding++
		case res := <-results:
			outstanding--
			if res.err == nil {
				if res.hedge {
					r.hedgeWins.Add(1)
				}
				return res.data, true
			}
			if !res.hedge && timerC != nil {
				launch()
				outstanding++
			}
		}
	}
	return nil, false
}

// handleHealthz is router liveness: 200 whenever the process answers.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{\n  \"status\": \"ok\"\n}\n"))
}

// handleReadyz reports routability: 200 while at least one backend is
// up, 503 when the whole fleet is down.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	up := r.monitor.Up()
	status, code := http.StatusOK, "ok"
	if len(up) == 0 {
		status, code = http.StatusServiceUnavailable, "no_backends"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"status": code, "up": up})
}

// handleMetrics renders router counters plus a cluster rollup: one
// per-node block (up gauge, forwarded counter) and an aggregate
// summing each reachable node's manager snapshot — so one scrape
// answers both "is the ring balanced" and "what is the fleet doing".
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pw := server.PromWriter{W: w}
	pw.Gauge("netalignrouter_backends", "Configured backends.", len(r.nodes))
	pw.Labeled("netalignrouter_node_up", "1 while the backend passes readiness probes.", "gauge", "node", r.nodes,
		func(n string) any {
			if r.monitor.IsUp(n) {
				return 1
			}
			return 0
		})
	pw.Labeled("netalignrouter_forwarded_total", "Submissions accepted per backend.", "counter", "node", r.nodes, func(n string) any { return r.forwarded[n].Value() })
	pw.Counter("netalignrouter_failover_total", "Submissions moved past an unavailable owner to a ring successor.", r.failovers.Value())
	pw.Counter("netalignrouter_unroutable_total", "Submissions refused because no backend would take them.", r.unroutable.Value())
	pw.Counter("netalignrouter_ring_rebalance_total", "Ring membership transitions (nodes joining or leaving the up-set).", r.rebalances.Value())
	pw.Counter("netalignrouter_owner_fanout_total", "Per-job requests resolved by fan-out owner lookup.", r.ownerMiss.Value())
	pw.Counter("netalignrouter_hedged_total", "Secondary requests issued for slow or failed idempotent reads.", r.hedged.Value())
	pw.Counter("netalignrouter_hedge_wins_total", "Hedged reads answered first by the secondary.", r.hedgeWins.Value())

	// Aggregate rollup: sum each reachable node's snapshot. Nodes that
	// fail the scrape are skipped and counted, so a partial rollup is
	// visible as such rather than silently low.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		scraped = make(map[string]*server.Metrics)
	)
	for _, n := range r.nodes {
		if !r.monitor.IsUp(n) {
			continue
		}
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			m, err := r.clients[n].Metrics()
			if err != nil {
				return
			}
			mu.Lock()
			scraped[n] = m
			mu.Unlock()
		}(n)
	}
	wg.Wait()

	pw.Gauge("netalignrouter_nodes_scraped", "Backends whose metrics contributed to the cluster rollup.", len(scraped))
	pw.Labeled("netalignrouter_node_jobs_submitted_total", "Jobs accepted per backend.", "counter", "node", server.SortedKeys(scraped), func(n string) any { return scraped[n].Submitted })
	var agg struct {
		submitted, completed, failed, coalesced int64
		cacheHits, cacheMisses, peerFills       int64
		queueDepth, running                     int64
	}
	tenantAgg := make(map[string]*server.TenantMetrics)
	for _, m := range scraped {
		agg.submitted += m.Submitted
		agg.completed += m.Completed
		agg.failed += m.Failed
		agg.coalesced += m.Coalesced
		agg.cacheHits += m.CacheHits
		agg.cacheMisses += m.CacheMisses
		agg.peerFills += m.PeerFills
		agg.queueDepth += int64(m.QueueDepth)
		agg.running += int64(m.Running)
		for name, tm := range m.Tenants {
			t := tenantAgg[name]
			if t == nil {
				t = &server.TenantMetrics{}
				tenantAgg[name] = t
			}
			t.Queued += tm.Queued
			t.Running += tm.Running
			t.Submitted += tm.Submitted
			t.Completed += tm.Completed
			t.Preempted += tm.Preempted
			t.Shed += tm.Shed
		}
	}
	pw.Counter("netalignrouter_cluster_jobs_submitted_total", "Jobs accepted across the cluster.", agg.submitted)
	pw.Counter("netalignrouter_cluster_jobs_completed_total", "Jobs finished done across the cluster.", agg.completed)
	pw.Counter("netalignrouter_cluster_jobs_failed_total", "Jobs finished failed across the cluster.", agg.failed)
	pw.Counter("netalignrouter_cluster_jobs_coalesced_total", "Submissions coalesced onto identical inflight jobs across the cluster.", agg.coalesced)
	pw.Counter("netalignrouter_cluster_cache_hits_total", "Result-cache hits across the cluster.", agg.cacheHits)
	pw.Counter("netalignrouter_cluster_cache_misses_total", "Result-cache misses across the cluster.", agg.cacheMisses)
	pw.Counter("netalignrouter_cluster_peer_fill_total", "Peer cache fills across the cluster.", agg.peerFills)
	pw.Gauge("netalignrouter_cluster_queue_depth", "Queued jobs across the cluster.", agg.queueDepth)
	pw.Gauge("netalignrouter_cluster_jobs_running", "Running jobs across the cluster.", agg.running)

	// Per-tenant cluster rollup: one labeled series per tenant summed
	// across every scraped node, so a fleet operator sees each tenant's
	// aggregate demand without scraping nodes individually.
	if len(tenantAgg) > 0 {
		tenants := server.SortedKeys(tenantAgg)
		pw.Labeled("netalignrouter_cluster_tenant_queue_depth", "Queued jobs per tenant across the cluster.", "gauge", "tenant", tenants, func(t string) any { return tenantAgg[t].Queued })
		pw.Labeled("netalignrouter_cluster_tenant_jobs_running", "Running jobs per tenant across the cluster.", "gauge", "tenant", tenants, func(t string) any { return tenantAgg[t].Running })
		pw.Labeled("netalignrouter_cluster_tenant_jobs_submitted_total", "Jobs accepted per tenant across the cluster.", "counter", "tenant", tenants, func(t string) any { return tenantAgg[t].Submitted })
		pw.Labeled("netalignrouter_cluster_tenant_jobs_completed_total", "Jobs finished done per tenant across the cluster.", "counter", "tenant", tenants, func(t string) any { return tenantAgg[t].Completed })
		pw.Labeled("netalignrouter_cluster_tenant_jobs_preempted_total", "Batch runs checkpoint-preempted per tenant across the cluster.", "counter", "tenant", tenants, func(t string) any { return tenantAgg[t].Preempted })
		pw.Labeled("netalignrouter_cluster_tenant_jobs_shed_total", "Submissions refused per tenant across the cluster.", "counter", "tenant", tenants, func(t string) any { return tenantAgg[t].Shed })
	}
}
