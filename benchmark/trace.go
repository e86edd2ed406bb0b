package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's origin; Parent indexes the span that
// caused this one (-1 for a root) and is filled in by link.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    string `json:"job,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pass nil everywhere.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record adds the span [start, end) named name for job.
func (t *tracer) record(name, job string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: -1, Job: job}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a linked copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(out)
	return out
}

// write stores the linked spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(struct {
		Origin time.Time `json:"origin"`
		Spans  []span    `json:"spans"`
	}{t.origin, t.snapshot()})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// callerOf names the span kind that causes a span of the given kind:
// the client's requests go through the router, which forwards to a
// node, and a node's cache route serves another node's peer-fill probe
// made while admitting a submission.
func callerOf(name string) (parent string, sameJob bool) {
	layer, route, _ := strings.Cut(name, ".")
	switch {
	case name == "node.cache":
		return "node.submit", false
	case layer == "node":
		return "router." + route, true
	case layer == "router":
		return "client." + route, true
	case layer == "client" && route != "job":
		return "client.job", true
	}
	return "", false
}

// link sets each span's Parent to the latest-starting span of its
// caller's kind that encloses it in time (and, where the caller is
// per-job, belongs to the same job).
func link(spans []span) {
	byName := make(map[string][]int)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	for i := range spans {
		c := &spans[i]
		c.Parent = -1
		pname, sameJob := callerOf(c.Name)
		if pname == "" {
			continue
		}
		for _, j := range byName[pname] {
			p := spans[j]
			if sameJob && p.Job != c.Job {
				continue
			}
			if p.Start <= c.Start && c.End <= p.End && (c.Parent < 0 || p.Start > spans[c.Parent].Start) {
				c.Parent = j
			}
		}
	}
}

// selfTime returns s's duration minus the part of it that its
// children cover; overlapping children count once.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered := int64(0)
	end := s.Start
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.lo < v.hi {
			covered += v.hi - v.lo
			end = v.hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// selfTimes returns the self time, in ms, of every span whose name is
// one of names.
func selfTimes(spans []span, names ...string) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, ms(selfTime(s, children[i])))
			}
		}
	}
	return out
}

// durations returns the duration, in ms, of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// wrap serves h, recording a span named layer+"."+route around each
// job API request (submit, status, result) and peer cache probe.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, job := classify(r)
		if route == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		if route == "submit" {
			// The job id exists only once admission answers.
			cw := &idCapture{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			job = cw.id()
		} else {
			h.ServeHTTP(w, r)
		}
		t.record(layer+"."+route, job, start, time.Now())
	})
}

// classify maps a request to its traced route and job id; route is
// empty for untraced requests (health probes, metrics).
func classify(r *http.Request) (route, job string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) > 0 && parts[0] == "v1" {
		parts = parts[1:]
	}
	switch {
	case r.Method == http.MethodPost && len(parts) == 1 && parts[0] == "jobs":
		return "submit", ""
	case r.Method == http.MethodGet && len(parts) == 2 && parts[0] == "jobs":
		return "status", parts[1]
	case r.Method == http.MethodGet && len(parts) == 3 && parts[0] == "jobs" && parts[2] == "result":
		return "result", parts[1]
	case r.Method == http.MethodGet && len(parts) == 2 && parts[0] == "cache":
		return "cache", ""
	}
	return "", ""
}

// idCapture keeps the start of a submit response so the span can carry
// the job id the handler assigned.
type idCapture struct {
	http.ResponseWriter
	buf []byte
}

const idCaptureBytes = 4 << 10

func (c *idCapture) Write(p []byte) (int, error) {
	if room := idCaptureBytes - len(c.buf); room > 0 {
		c.buf = append(c.buf, p[:min(room, len(p))]...)
	}
	return c.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (c *idCapture) Unwrap() http.ResponseWriter { return c.ResponseWriter }

func (c *idCapture) id() string {
	var st struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(c.buf, &st) // a refused submission has no id
	return st.ID
}
