package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"netalignmc/internal/server"
)

// badSpecs are malformed problem sources, each with the error message
// the node returned for it before admission stopped building S. The
// messages are pinned so admission keeps rejecting exactly the same
// specs for exactly the same reasons.
var badSpecs = []struct {
	name string
	spec server.Spec
	msg  string
}{
	{
		name: "text L dims",
		spec: server.Spec{Problem: "netalign 1\ngraph A 2 1\n0 1\ngraph B 2 1\n0 1\ngraph L 3 2 1\n0 0 1\n"},
		msg:  "server: bad job spec: core: L is 3x2 but |V_A|=2, |V_B|=2",
	},
	{
		name: "smat L dims",
		spec: server.Spec{A: "2 2 2\n0 1 1\n1 0 1\n", B: "2 2 0\n", L: "3 2 1\n2 1 1\n"},
		msg:  "server: bad job spec: core: L is 3x2 but |V_A|=2, |V_B|=2",
	},
	{
		name: "mtx L dims",
		spec: server.Spec{
			Format: "mtx",
			A:      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n",
			B:      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 0\n",
			L:      "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 3 1\n",
		},
		msg: "server: bad job spec: core: L is 2x3 but |V_A|=2, |V_B|=2",
	},
	{
		name: "text negative alpha",
		spec: server.Spec{Problem: "netalign 1\nalpha -1\ngraph A 1 0\ngraph B 1 0\ngraph L 1 1 1\n0 0 1\n"},
		msg:  "server: bad job spec: core: negative objective weights alpha=-1 beta=1",
	},
	{
		name: "text bad edge",
		spec: server.Spec{Problem: "netalign 1\ngraph A 2 1\n0 5\ngraph B 2 0\ngraph L 2 2 0\n"},
		msg:  "server: bad job spec: problemio: line 3: bad edge",
	},
	{
		name: "text NaN weight",
		spec: server.Spec{Problem: "netalign 1\ngraph A 2 0\ngraph B 2 0\ngraph L 2 2 1\n0 0 NaN\n"},
		msg:  "server: bad job spec: problemio: line 5: bad L edge",
	},
	{
		name: "text missing section",
		spec: server.Spec{Problem: "netalign 1\ngraph A 2 0\ngraph L 2 2 1\n0 0 1\n"},
		msg:  "server: bad job spec: problemio: missing graph sections (A:true B:false L:true)",
	},
}

// TestAdmissionRejectsBadSpecs: every malformed spec is an ErrBadSpec
// at the node, and the router — which cannot key the spec and routes
// it by body hash — relays the owner's 400 with the bad_request code
// and the node's message.
func TestAdmissionRejectsBadSpecs(t *testing.T) {
	a := startNode(t, server.Config{CacheBytes: 16 << 20})
	b := startNode(t, server.Config{CacheBytes: 16 << 20})
	_, rt := startRouter(t, a, b)
	for _, tc := range badSpecs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := a.mgr.Submit(tc.spec)
			if !errors.Is(err, server.ErrBadSpec) {
				t.Fatalf("Manager.Submit = %v, want ErrBadSpec", err)
			}
			if err.Error() != tc.msg {
				t.Errorf("Manager.Submit message %q, want %q", err, tc.msg)
			}
			resp, body := postSpec(t, rt.URL, tc.spec)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("router status %d, want 400: %s", resp.StatusCode, body)
			}
			var env struct {
				Error struct{ Code, Message string }
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("router body %s: %v", body, err)
			}
			if env.Error.Code != "bad_request" || env.Error.Message != tc.msg {
				t.Errorf("router error {%s, %q}, want {bad_request, %q}", env.Error.Code, env.Error.Message, tc.msg)
			}
		})
	}
}

// TestAdmissionRejectsOversizedGenerators: a generator spec of a few
// dozen bytes can ask for a problem far larger than any upload may be
// (n=20000 used to take over a minute of admission and 90 MB of
// canonical bytes). Node and router must answer 400 from the
// parameters alone, before generating anything.
func TestAdmissionRejectsOversizedGenerators(t *testing.T) {
	a := startNode(t, server.Config{CacheBytes: 16 << 20})
	b := startNode(t, server.Config{CacheBytes: 16 << 20})
	_, rt := startRouter(t, a, b)
	client := &http.Client{Timeout: 10 * time.Second}
	for _, body := range []string{
		`{"generator":{"n":20000,"dbar":8}}`,
		`{"generator":{"n":400,"dbar":10000}}`,
		`{"generator":{"n":2048,"perturb":0.05}}`,
		`{"generator":{"type":"lcsh-rameau"}}`,
		`{"generator":{"type":"lcsh-wiki","scale":-1}}`,
	} {
		for _, target := range []struct{ name, url string }{{"node", a.url}, {"router", rt.URL}} {
			start := time.Now()
			resp, err := client.Post(target.url+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", target.name, body, err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			elapsed := time.Since(start)
			if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("out of range")) {
				t.Errorf("%s %s: status %d body %s, want 400 out of range", target.name, body, resp.StatusCode, data)
			}
			if elapsed > time.Second {
				t.Errorf("%s %s: rejected after %v, want well under a second", target.name, body, elapsed)
			}
		}
	}
}

// TestRouterLegacyLayoutFields: through the router, a spec carrying the
// v1 "pipeline", "reorder" and "fused" fields (accepted and ignored) keys and
// routes like the bare spec — it lands on the bare spec's owner as a
// cache hit with byte-identical result bytes — and an unknown reorder
// value is still relayed as 400 bad_request with the node's message.
func TestRouterLegacyLayoutFields(t *testing.T) {
	a := startNode(t, server.Config{CacheBytes: 16 << 20})
	b := startNode(t, server.Config{CacheBytes: 16 << 20})
	_, rt := startRouter(t, a, b)

	bare := smallSpec()
	bare.Threads = 2
	legacy := bare
	legacy.Pipeline = true
	legacy.Reorder = "rcm"
	legacy.Fused = true

	st1 := submitOK(t, rt.URL, bare)
	waitDone(t, rt.URL, st1.ID)
	want := getResultBytes(t, rt.URL, st1.ID)
	st2 := submitOK(t, rt.URL, legacy)
	waitDone(t, rt.URL, st2.ID)
	if got := getResultBytes(t, rt.URL, st2.ID); !bytes.Equal(got, want) {
		t.Fatal("result with pipeline/reorder/fused differs from the bare spec's")
	}
	owner := findOwner(t, []*testNode{a, b}, st1.ID)
	if findOwner(t, []*testNode{a, b}, st2.ID) != owner {
		t.Error("spec with pipeline/reorder/fused routed to a different owner than the bare spec")
	}
	if m := owner.mgr.Snapshot(); m.CacheHits < 1 {
		t.Errorf("owner cache hits = %d, want >= 1 (same cache key)", m.CacheHits)
	}

	bogus := bare
	bogus.Reorder = "bogus"
	resp, body := postSpec(t, rt.URL, bogus)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("router status %d, want 400: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("router body %s: %v", body, err)
	}
	const msg = `server: bad job spec: unknown reorder mode "bogus" (want none, auto, degree or rcm)`
	if env.Error.Code != "bad_request" || env.Error.Message != msg {
		t.Errorf("router error {%s, %q}, want {bad_request, %q}", env.Error.Code, env.Error.Message, msg)
	}
}
