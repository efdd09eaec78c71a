package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"drnet/internal/obs"
)

// noDegrade zeroes the degradation thresholds, so only an explicit
// escalation can degrade a response.
func noDegrade(c *Config) { c.ESSRatioFloor, c.MaxWeightCeiling, c.ZeroSupportCap = 0, 0, 0 }

// tracesBody mirrors the /debug/traces response shape.
type tracesBody struct {
	Buffered int    `json:"buffered"`
	Recorded uint64 `json:"recorded"`
	Traces   []struct {
		Trace      string   `json:"trace"`
		Root       string   `json:"root"`
		DurationMs float64  `json:"durationMs"`
		Error      string   `json:"error"`
		Spans      spanNode `json:"spans"`
	} `json:"traces"`
}

type spanNode struct {
	Name          string            `json:"name"`
	Span          string            `json:"span"`
	StartOffsetMs float64           `json:"startOffsetMs"`
	DurationMs    float64           `json:"durationMs"`
	Attrs         map[string]string `json:"attrs"`
	Error         string            `json:"error"`
	Children      []spanNode        `json:"children"`
}

func getTraces(t *testing.T, srv *httptest.Server, query string) tracesBody {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces returned %d", resp.StatusCode)
	}
	var body tracesBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// postWithID is post with an explicit X-Request-Id header.
func postWithID(t *testing.T, srv *httptest.Server, path, id string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEvaluateTimelineEndToEnd is the tentpole acceptance test: a real
// /evaluate with a bootstrap, identified by the client's X-Request-Id,
// must come back from /debug/traces as a parent→child timeline whose
// root is the HTTP request and whose children are the evaluation
// phases, bootstrap included.
func TestEvaluateTimelineEndToEnd(t *testing.T) {
	t.Parallel()
	// All-zero thresholds disable degradation: this test wants the
	// healthy timeline shape.
	_, srv := newTestServer(t, noDegrade)

	id := "e2e-trace-" + obs.NewID()
	resp := postWithID(t, srv, "/evaluate", id, evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 30, Seed: 3},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/evaluate returned %d", resp.StatusCode)
	}

	body := getTraces(t, srv, "?n=100")
	if body.Recorded == 0 || body.Buffered == 0 {
		t.Fatalf("recorder empty after a traced request: %+v", body)
	}
	var found *spanNode
	var rootDur float64
	for i := range body.Traces {
		if body.Traces[i].Trace == id {
			found = &body.Traces[i].Spans
			rootDur = body.Traces[i].DurationMs
			break
		}
	}
	if found == nil {
		t.Fatalf("trace %s not in /debug/traces (got %d traces)", id, len(body.Traces))
	}
	if found.Name != "http/evaluate" {
		t.Fatalf("root span name = %q, want http/evaluate", found.Name)
	}
	if found.Attrs["route"] != "/evaluate" || found.Attrs["method"] != "POST" || found.Attrs["status"] != "200" {
		t.Fatalf("root attrs = %v", found.Attrs)
	}
	if found.Error != "" {
		t.Fatalf("healthy request recorded root error %q", found.Error)
	}

	children := map[string]spanNode{}
	for _, c := range found.Children {
		children[c.Name] = c
	}
	for _, phase := range []string{"diagnose", "fit_model", "direct_method", "ips", "doubly_robust", "drevald_bootstrap"} {
		c, ok := children[phase]
		if !ok {
			t.Fatalf("phase %q missing from timeline; children: %v", phase, childNames(found.Children))
		}
		if c.StartOffsetMs < 0 || c.DurationMs < 0 {
			t.Fatalf("phase %q has negative offset/duration: %+v", phase, c)
		}
		if c.DurationMs > rootDur+1 {
			t.Fatalf("phase %q (%.3fms) longer than its request (%.3fms)", phase, c.DurationMs, rootDur)
		}
	}
	if got := children["drevald_bootstrap"].Attrs["resamples"]; got != "30" {
		t.Fatalf("bootstrap resamples attr = %q, want 30", got)
	}
	// Children arrive in execution order: diagnose starts no later than
	// the bootstrap.
	if children["diagnose"].StartOffsetMs > children["drevald_bootstrap"].StartOffsetMs {
		t.Fatalf("diagnose (%.3fms) starts after bootstrap (%.3fms)",
			children["diagnose"].StartOffsetMs, children["drevald_bootstrap"].StartOffsetMs)
	}
}

func childNames(cs []spanNode) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return out
}

// TestDegradedRequestMarksSpanError: the degraded path is a 200 on the
// wire but an error in the trace — the root span must carry the
// degraded attribute, an error message, and a tick of
// obs_span_errors_total{span="http/evaluate"}.
func TestDegradedRequestMarksSpanError(t *testing.T) {
	_, srv := newTestServer(t, func(c *Config) { c.ESSRatioFloor = 1.0 })

	errsBefore := obs.Default.Counter("obs_span_errors_total", obs.L("span", "http/evaluate")).Value()
	id := "degraded-trace-" + obs.NewID()
	resp := postWithID(t, srv, "/evaluate", id, evalRequest{
		Trace:  testTraceJSON(t, false),
		Policy: "constant:c",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request must stay 200, got %d", resp.StatusCode)
	}

	body := getTraces(t, srv, "?n=100")
	var found *spanNode
	for i := range body.Traces {
		if body.Traces[i].Trace == id {
			found = &body.Traces[i].Spans
			break
		}
	}
	if found == nil {
		t.Fatalf("degraded trace %s not recorded", id)
	}
	if found.Attrs["degraded"] != "true" {
		t.Fatalf("root attrs missing degraded=true: %v", found.Attrs)
	}
	if !strings.Contains(found.Error, "degraded") {
		t.Fatalf("root error = %q, want a degraded message", found.Error)
	}
	has := false
	for _, c := range found.Children {
		if c.Name == "fallback" {
			has = true
		}
	}
	if !has {
		t.Fatalf("fallback phase missing from degraded timeline: %v", childNames(found.Children))
	}
	if after := obs.Default.Counter("obs_span_errors_total", obs.L("span", "http/evaluate")).Value(); after != errsBefore+1 {
		t.Fatalf("span error counter went %d → %d, want +1", errsBefore, after)
	}
}

// TestScrapeRoutesNotTraced: /metrics and /healthz must not consume
// ring slots — only compute routes are traced.
func TestScrapeRoutesNotTraced(t *testing.T) {
	t.Parallel()
	s, srv := newTestServer(t, nil)

	before := s.traces.Recorded()
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if after := s.traces.Recorded(); after != before {
		t.Fatalf("scrape routes recorded %d spans", after-before)
	}
}

// TestTraceSinkStreamsJSONL: a sink installed on the recorder (the
// -trace-out path) receives every completed span of a request as
// parseable JSON lines sharing the request's trace ID.
func TestTraceSinkStreamsJSONL(t *testing.T) {
	t.Parallel()
	s, srv := newTestServer(t, noDegrade)
	var mu sync.Mutex
	var lines [][]byte
	s.traces.SetSink(func(line []byte) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, append([]byte(nil), line...))
	})
	defer s.traces.SetSink(nil)

	id := "sink-trace-" + obs.NewID()
	resp := postWithID(t, srv, "/evaluate", id, evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 10, Seed: 2},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/evaluate returned %d", resp.StatusCode)
	}
	// The sink is drained by a background goroutine; removing it
	// flushes every queued line before we inspect them.
	s.traces.SetSink(nil)

	mu.Lock()
	defer mu.Unlock()
	names := map[string]bool{}
	for _, line := range lines {
		if !bytes.HasSuffix(line, []byte("\n")) {
			t.Fatalf("sink line not newline-terminated: %q", line)
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("sink line is not valid JSON: %v\n%s", err, line)
		}
		if rec.Trace == id {
			names[rec.Name] = true
		}
	}
	for _, want := range []string{"http/evaluate", "diagnose", "drevald_bootstrap"} {
		if !names[want] {
			t.Fatalf("span %q missing from JSONL export; got %v", want, names)
		}
	}
}

// TestDebugTracesOnBothMuxes: the endpoint is served on the service
// port and the debug port, and rejects a malformed n.
func TestDebugTracesOnBothMuxes(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, nil)
	for name, mux := range map[string]http.Handler{"service": s.Handler(), "debug": s.debugMux()} {
		srv := httptest.NewServer(mux)
		resp, err := http.Get(srv.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s mux: /debug/traces returned %d", name, resp.StatusCode)
		}
		resp, err = http.Get(srv.URL + "/debug/traces?n=bogus")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s mux: bogus n returned %d, want 400", name, resp.StatusCode)
		}
		srv.Close()
	}
}
