package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		children []span
		want     time.Duration
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 30}}, 80},
		// Overlapping children count once; a child running past the
		// parent is clipped to it.
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}, 60},
		{[]span{{Start: 20, End: 40}, {Start: 25, End: 35}}, 80},
		{[]span{{Start: -10, End: 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime with children %v = %v, want %v", c.children, got, c.want)
		}
	}
}

func TestLinkFollowsTheRequestPath(t *testing.T) {
	spans := []span{
		{Name: "client.job", Job: "a", Start: 0, End: 100},
		{Name: "client.submit", Job: "a", Start: 0, End: 20},
		{Name: "router.submit", Job: "a", Start: 2, End: 19},
		{Name: "node.submit", Job: "a", Start: 5, End: 18},
		{Name: "node.cache", Start: 6, End: 7},
		// Job b's router span encloses a's node span in time but is
		// another job's.
		{Name: "router.submit", Job: "b", Start: 1, End: 30},
		{Name: "client.status", Job: "a", Start: 40, End: 45},
		{Name: "router.status", Job: "a", Start: 41, End: 44},
	}
	link(spans)
	want := []int{-1, 0, 1, 2, 3, -1, 0, 6}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s %s) has parent %d, want %d", i, s.Name, s.Job, s.Parent, want[i])
		}
	}
	if got := selfTimes(spans, "router.submit"); len(got) != 2 || got[0] != ms(4) || got[1] != ms(29) {
		t.Errorf("router.submit self times = %v, want [%v %v]", got, ms(4), ms(29))
	}
}

func TestWrapRecordsJobSpans(t *testing.T) {
	tr := newTracer()
	h := tr.wrap("node", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte(`{"id": "0123456789abcdef", "state": "queued"}`))
		}
	}))
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("{}")),
		httptest.NewRequest(http.MethodGet, "/v1/jobs/0123456789abcdef", nil),
		httptest.NewRequest(http.MethodGet, "/v1/jobs/0123456789abcdef/result", nil),
		httptest.NewRequest(http.MethodGet, "/v1/cache/ff", nil),
		httptest.NewRequest(http.MethodGet, "/readyz", nil),
	} {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	var got []string
	for _, s := range tr.snapshot() {
		got = append(got, s.Name+" "+s.Job)
	}
	want := []string{"node.submit 0123456789abcdef", "node.status 0123456789abcdef", "node.result 0123456789abcdef", "node.cache "}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("spans %q, want %q", got, want)
	}

	path := filepath.Join(t.TempDir(), "spans", "x.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) != len(want) {
		t.Errorf("span file holds %d spans (%v), want %d", len(file.Spans), err, len(want))
	}
}
