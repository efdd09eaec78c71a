package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"drnet/internal/obs"
)

// TestMain re-executes the test binary as a real drevald server when
// DREVALD_CRASH_CHILD=1 is set: the crash-replay chaos suite SIGKILLs
// it mid-batch and replays its WAL, and the golden-body test drives it
// by its flags.
func TestMain(m *testing.M) {
	if os.Getenv("DREVALD_CRASH_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestHealthzFields(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Fatalf("status field %q", out.Status)
	}
	if out.UptimeSeconds < 0 {
		t.Fatalf("uptimeSeconds %g", out.UptimeSeconds)
	}
	if out.Version == "" {
		t.Fatal("version missing")
	}
}

func TestUnknownRoute(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestWrongMethod(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	for path, method := range map[string]string{
		"/healthz":  http.MethodPost,
		"/diagnose": http.MethodGet,
		"/metrics":  http.MethodPost,
	} {
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", method, path, resp.StatusCode)
		}
	}
}

func TestOversizedBody(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, nil)
	s.maxBody = 1024
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Valid JSON well past the limit, so the decoder reads through the
	// MaxBytesReader cap instead of bailing on a syntax error first.
	big, err := json.Marshal(evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(big)) <= s.maxBody {
		t.Fatalf("test body %d bytes not over the %d limit", len(big), s.maxBody)
	}
	resp, err := http.Post(srv.URL+"/evaluate", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("413 body not JSON: %v", err)
	}
	if out["error"] == "" {
		t.Fatal("413 body missing error field")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	// Client-supplied ID is echoed back.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-42" {
		t.Fatalf("echoed id %q", got)
	}
	// Absent ID: one is generated.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", got)
	}
}

// scrapeMetrics fetches /metrics and returns every sample as
// name{labels} → value, failing the test on any unparseable line.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint asserts the exposition parses, includes the
// acceptance-criteria families from every layer (HTTP middleware,
// estimator regime, worker pool), and increases monotonically across
// requests.
func TestMetricsEndpoint(t *testing.T) {
	_, srv := newTestServer(t, nil)

	// One successful evaluation populates the eval + bootstrap series.
	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 20},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}

	before := scrapeMetrics(t, srv.URL)
	evalKey := `drevald_http_requests_total{code="2xx",route="/evaluate"}`
	for _, key := range []string{
		evalKey,
		`drevald_http_request_seconds_count{route="/evaluate"}`,
		`drevald_eval_ess_ratio_count`,
		`drevald_eval_max_weight_count`,
		`drevald_eval_zero_support_count`,
		`drevald_bootstrap_resamples_total`,
		`drevald_bootstrap_skipped_total`,
		`obs_pool_tasks_total`,
		`obs_pool_default_workers`,
		`obs_span_seconds_count{span="drevald_bootstrap"}`,
	} {
		if _, ok := before[key]; !ok {
			t.Fatalf("metrics missing %s", key)
		}
	}
	if before[evalKey] < 1 {
		t.Fatalf("%s = %g, want >= 1", evalKey, before[evalKey])
	}
	if before[`drevald_bootstrap_resamples_total`] < 20 {
		t.Fatalf("bootstrap resamples = %g, want >= 20", before[`drevald_bootstrap_resamples_total`])
	}

	// Metrics are cumulative: another request strictly increases the
	// request counter and never decreases any counter family.
	resp = post(t, srv, "/evaluate", evalRequest{
		Trace:  testTraceJSON(t, false),
		Policy: "constant:c",
	})
	resp.Body.Close()
	after := scrapeMetrics(t, srv.URL)
	if after[evalKey] != before[evalKey]+1 {
		t.Fatalf("%s went %g → %g, want +1", evalKey, before[evalKey], after[evalKey])
	}
	for _, key := range []string{
		`drevald_http_request_seconds_count{route="/evaluate"}`,
		`drevald_eval_ess_ratio_count`,
		`obs_pool_tasks_total`,
	} {
		if after[key] < before[key] {
			t.Fatalf("%s decreased: %g → %g", key, before[key], after[key])
		}
	}
}

func TestDebugVars(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Version       string         `json:"version"`
		UptimeSeconds float64        `json:"uptimeSeconds"`
		Goroutines    int            `json:"goroutines"`
		Metrics       map[string]any `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version == "" || out.Goroutines < 1 || len(out.Metrics) == 0 {
		t.Fatalf("thin /debug/vars: %+v", out)
	}
}

// TestDebugMux exercises the opt-in -debug-addr surface: pprof index,
// plus the metrics twins.
func TestDebugMux(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, nil)
	srv := httptest.NewServer(s.debugMux())
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/metrics", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestBootstrapSkippedField: every bootstrap response reports the
// skipped-resample count (0 on a healthy trace), and responses without
// a bootstrap omit it.
func TestBootstrapSkippedField(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 30},
	})
	defer resp.Body.Close()
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.BootstrapSkipped == nil {
		t.Fatal("bootstrapSkipped missing from bootstrap response")
	}
	if *out.BootstrapSkipped != 0 {
		t.Fatalf("bootstrapSkipped = %d on a healthy trace", *out.BootstrapSkipped)
	}

	resp2 := post(t, srv, "/evaluate", evalRequest{
		Trace:  testTraceJSON(t, false),
		Policy: "constant:c",
	})
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "bootstrapSkipped") {
		t.Fatal("bootstrapSkipped present without a bootstrap")
	}
}

// TestIntervalJSONCamelCase pins the satellite fix: drInterval must
// serialize as lo/hi/level, not Lo/Hi/Level.
func TestIntervalJSONCamelCase(t *testing.T) {
	t.Parallel()
	_, srv := newTestServer(t, nil)
	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 20},
	})
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	if !strings.Contains(s, `"drInterval":{"lo":`) {
		t.Fatalf("drInterval not camelCase: %s", s)
	}
	for _, bad := range []string{`"Lo":`, `"Hi":`, `"Level":`} {
		if strings.Contains(s, bad) {
			t.Fatalf("capitalized interval key %s in: %s", bad, s)
		}
	}
}

// TestSyncCounterNeverGoesBackwards: scrape-time syncing advances a
// counter by the growth of a cumulative reading, and a reading that
// went down (a replaced source) only resets the baseline.
func TestSyncCounterNeverGoesBackwards(t *testing.T) {
	t.Parallel()
	c := obs.NewRegistry().Counter("lost_total")
	var last atomic.Uint64
	for _, step := range []struct{ cur, want uint64 }{{5, 5}, {5, 5}, {2, 5}, {9, 12}} {
		syncCounter(c, &last, step.cur)
		if got := c.Value(); got != step.want {
			t.Fatalf("after reading %d: counter %d, want %d", step.cur, got, step.want)
		}
	}
}
