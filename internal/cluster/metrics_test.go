package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netalignmc/internal/server"
)

// metricsShape parses a Prometheus text body and reduces it to one
// line per metric family, "type name{label,...} help", in body order.
// Each family must be a "# HELP name help" line, a "# TYPE name type"
// line and at least one series of that name, every series carrying the
// same label names; the shape thus pins the header lines, series names,
// label names and their order, but not how many nodes, tenants or
// solver steps are present. check sees every sample value.
func metricsShape(t *testing.T, url string, check func(series, value string)) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	labelValue := regexp.MustCompile(`="[^"]*"`)
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	var shape strings.Builder
	for i := 0; i < len(lines); {
		name, help, ok := strings.Cut(strings.TrimPrefix(lines[i], "# HELP "), " ")
		if !ok || !strings.HasPrefix(lines[i], "# HELP ") || i+1 == len(lines) {
			t.Fatalf("%s/metrics line %d: %q is not a family header", url, i+1, lines[i])
		}
		typ, ok := strings.CutPrefix(lines[i+1], "# TYPE "+name+" ")
		if !ok {
			t.Fatalf("%s/metrics line %d: %q is not the TYPE line of %s", url, i+2, lines[i+1], name)
		}
		labels, n := "", 0
		for i += 2; i < len(lines) && !strings.HasPrefix(lines[i], "#"); i, n = i+1, n+1 {
			series, value, _ := strings.Cut(lines[i], " ")
			check(series, value)
			got, ok := strings.CutPrefix(labelValue.ReplaceAllString(series, ""), name)
			if n == 0 {
				labels = got
			}
			if !ok || got != labels {
				t.Fatalf("%s/metrics line %d: series %q does not match family %s%s", url, i+1, series, name, labels)
			}
		}
		if n == 0 {
			t.Fatalf("%s/metrics: family %s has no series", url, name)
		}
		fmt.Fprintf(&shape, "%s %s%s %s\n", typ, name, labels, help)
	}
	return shape.String()
}

// TestMetricsShape pins the node's and the router's /metrics families:
// # HELP and # TYPE lines, series names, label names and their order.
// Every optional block is switched on (tenants, peer fill, cache,
// solver steps, scraped nodes). Node samples must parse as numbers;
// router samples are decimal integers.
func TestMetricsShape(t *testing.T) {
	peer := startNode(t, server.Config{CacheBytes: 16 << 20})
	filler := NewPeerFiller(PeerFillConfig{Peers: []string{peer.url}})
	node := startNode(t, server.Config{CacheBytes: 16 << 20, PeerFiller: filler})
	// The router's rollup scrapes /debug/vars, which a test node only
	// serves once published; front the node with that endpoint.
	mux := http.NewServeMux()
	mux.Handle("/", node.ts.Config.Handler)
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"netalignd": node.mgr.Snapshot()})
	})
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)
	_, rt := startRouter(t, &testNode{url: front.URL})
	st := submitOK(t, rt.URL, smallSpec())
	waitDone(t, rt.URL, st.ID)

	got := metricsShape(t, node.url, func(series, v string) {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			t.Errorf("node series %s: value %q is not a number", series, v)
		}
	})
	if got != nodeMetricsShape {
		t.Errorf("node /metrics shape:\n%s\nwant:\n%s", got, nodeMetricsShape)
	}
	got = metricsShape(t, rt.URL, func(series, v string) {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			t.Errorf("router series %s: value %q is not a decimal integer", series, v)
		}
	})
	if got != routerMetricsShape {
		t.Errorf("router /metrics shape:\n%s\nwant:\n%s", got, routerMetricsShape)
	}
}

const nodeMetricsShape = `gauge netalignd_uptime_seconds Seconds since the server started.
gauge netalignd_queue_depth Jobs waiting in the FIFO queue.
gauge netalignd_jobs_running Jobs currently solving.
counter netalignd_jobs_submitted_total Jobs accepted.
counter netalignd_jobs_resumed_total Jobs requeued from the spool at startup.
counter netalignd_jobs_interrupted_total Runs interrupted by drain or crash.
counter netalignd_jobs_rejected_total Submissions rejected by backpressure.
counter netalignd_jobs_completed_total Jobs finished done.
counter netalignd_jobs_failed_total Jobs finished failed.
counter netalignd_jobs_cancelled_total Jobs cancelled.
counter netalignd_jobs_numerics_total Jobs stopped by the numeric guard.
counter netalignd_jobs_coalesced_total Submissions coalesced onto an identical inflight job.
counter netalignd_jobs_retried_total Failed attempts re-enqueued with backoff.
counter netalignd_jobs_quarantined_total Jobs quarantined after exhausting their retry budget or crash-looping.
counter netalignd_jobs_requeued_total Quarantined jobs put back by the requeue endpoint.
counter netalignd_jobs_stalled_total Runs cancelled by the stall watchdog.
counter netalignd_jobs_shed_memory_total Submissions refused under memory pressure.
counter netalignd_jobs_refused_disk_total Submissions refused under disk pressure.
counter netalignd_jobs_preempted_total Batch runs checkpoint-preempted for interactive jobs.
counter netalignd_jobs_shed_quota_total Submissions refused by per-tenant admission quotas.
counter netalignd_jobs_deadline_expired_total Jobs failed because their queue deadline passed before dispatch.
counter netalignd_handoff_sent_total Queued jobs exported to a ring successor during drain.
counter netalignd_handoff_received_total Drained jobs admitted from a peer's handoff.
counter netalignd_handoff_failed_total Drain exports no peer accepted (job stayed queued in the spool).
counter netalignd_checkpoints_discarded_total Checkpoints found unreadable or not the job's, discarded for a rerun from scratch.
gauge netalignd_jobs_quarantined Jobs currently quarantined.
gauge netalignd_disk_free_bytes Free bytes on the spool volume at the last pressure sample.
gauge netalignd_rss_bytes Process resident set size at the last pressure sample.
gauge netalignd_disk_pressure_level Disk pressure level: 0 ok, 1 degraded, 2 refusing.
gauge netalignd_memory_pressure 1 while submissions are shed for memory pressure.
gauge netalignd_retry_after_seconds Current Retry-After hint attached to shed submissions.
gauge netalignd_tenant_weight{tenant} Configured fair-share weight.
gauge netalignd_tenant_queue_depth{tenant} Jobs waiting in the tenant's queues.
gauge netalignd_tenant_queue_depth_interactive{tenant} Interactive jobs waiting in the tenant's queue.
gauge netalignd_tenant_jobs_running{tenant} Tenant jobs currently solving.
counter netalignd_tenant_jobs_submitted_total{tenant} Jobs accepted for the tenant.
counter netalignd_tenant_jobs_completed_total{tenant} Tenant jobs finished done.
counter netalignd_tenant_jobs_preempted_total{tenant} Tenant batch runs checkpoint-preempted.
counter netalignd_tenant_jobs_shed_total{tenant} Tenant submissions refused by quota or memory pressure.
gauge netalignd_tenant_queue_wait_seconds_total{tenant} Cumulative queue wait charged to dispatched tenant jobs.
counter netalignd_peer_fill_total Submissions admitted from a peer's cache instead of solving.
counter netalignd_peer_fill_probes_total Cache probes sent to ring neighbors.
counter netalignd_peer_fill_rejects_total Peer payloads rejected by hash validation.
counter netalignd_peer_fill_misses_total Peer probes that found no entry anywhere.
counter netalignd_peer_fill_skipped_total Peer probes skipped because the peer was marked down.
counter netalignd_cache_hits_total Result-cache hits (memory or disk).
counter netalignd_cache_disk_hits_total Result-cache hits served from the disk tier.
counter netalignd_cache_misses_total Result-cache misses.
counter netalignd_cache_evictions_total Result-cache entries evicted by the byte bound.
counter netalignd_cache_corrupt_total Corrupt disk-tier entries detected and removed.
gauge netalignd_cache_bytes Serialized result bytes held in memory.
gauge netalignd_cache_entries Results held in the memory tier.
counter netalignd_solve_step_seconds{step} Cumulative solver time per pipeline stage.
gauge netalignd_sched_pool_workers Parked parallel-pool workers alive.
gauge netalignd_sched_workers_busy Pool workers executing a region right now.
counter netalignd_sched_pool_regions_total Parallel regions dispatched on a worker pool.
counter netalignd_sched_spawn_regions_total Parallel regions that fell back to goroutine spawning.
counter netalignd_sched_shared_busy_fallbacks_total Free-function regions that found the shared pool occupied.
`

const routerMetricsShape = `gauge netalignrouter_backends Configured backends.
gauge netalignrouter_node_up{node} 1 while the backend passes readiness probes.
counter netalignrouter_forwarded_total{node} Submissions accepted per backend.
counter netalignrouter_failover_total Submissions moved past an unavailable owner to a ring successor.
counter netalignrouter_unroutable_total Submissions refused because no backend would take them.
counter netalignrouter_ring_rebalance_total Ring membership transitions (nodes joining or leaving the up-set).
counter netalignrouter_owner_fanout_total Per-job requests resolved by fan-out owner lookup.
counter netalignrouter_hedged_total Secondary requests issued for slow or failed idempotent reads.
counter netalignrouter_hedge_wins_total Hedged reads answered first by the secondary.
gauge netalignrouter_nodes_scraped Backends whose metrics contributed to the cluster rollup.
counter netalignrouter_node_jobs_submitted_total{node} Jobs accepted per backend.
counter netalignrouter_cluster_jobs_submitted_total Jobs accepted across the cluster.
counter netalignrouter_cluster_jobs_completed_total Jobs finished done across the cluster.
counter netalignrouter_cluster_jobs_failed_total Jobs finished failed across the cluster.
counter netalignrouter_cluster_jobs_coalesced_total Submissions coalesced onto identical inflight jobs across the cluster.
counter netalignrouter_cluster_cache_hits_total Result-cache hits across the cluster.
counter netalignrouter_cluster_cache_misses_total Result-cache misses across the cluster.
counter netalignrouter_cluster_peer_fill_total Peer cache fills across the cluster.
gauge netalignrouter_cluster_queue_depth Queued jobs across the cluster.
gauge netalignrouter_cluster_jobs_running Running jobs across the cluster.
gauge netalignrouter_cluster_tenant_queue_depth{tenant} Queued jobs per tenant across the cluster.
gauge netalignrouter_cluster_tenant_jobs_running{tenant} Running jobs per tenant across the cluster.
counter netalignrouter_cluster_tenant_jobs_submitted_total{tenant} Jobs accepted per tenant across the cluster.
counter netalignrouter_cluster_tenant_jobs_completed_total{tenant} Jobs finished done per tenant across the cluster.
counter netalignrouter_cluster_tenant_jobs_preempted_total{tenant} Batch runs checkpoint-preempted per tenant across the cluster.
counter netalignrouter_cluster_tenant_jobs_shed_total{tenant} Submissions refused per tenant across the cluster.
`
