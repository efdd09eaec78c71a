package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"drnet/internal/wideevent"
)

// The /evaluate and /diagnose routes share one pipeline for inline and
// streamed input, so an annotation or check one of them gets, the
// others get too. These regression tests drive a real drevald process
// (see TestMain) through its flags, like the golden-body test.

// childEvents queries a drevald child's /debug/events with the given
// filter.
func childEvents(t *testing.T, child *crashChild, filter url.Values) []*wideevent.Event {
	t.Helper()
	resp, err := http.Get(child.url + "/debug/events?" + filter.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Events []*wideevent.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Events
}

// ingestAll streams records into a child in 100-record batches.
func ingestAll(t *testing.T, child *crashChild, records []ingestRequest) {
	t.Helper()
	for _, batch := range records {
		if status, raw, err := postJSON(child.url, "/ingest", batch); err != nil || status != http.StatusOK {
			t.Fatalf("ingest: status %d err %v (%s)", status, err, raw)
		}
	}
}

func batchesOf(t *testing.T) []ingestRequest {
	records := testTraceJSON(t, false)
	var out []ingestRequest
	for i := 0; i < len(records); i += 100 {
		out = append(out, ingestRequest{Records: records[i : i+100]})
	}
	return out
}

// TestFailedDiagnoseKeepsPolicy: a /diagnose that fails mid-pipeline
// (here: an already-expired request deadline) still carries its policy
// on the wide event, so /debug/events?policy=… finds it.
func TestFailedDiagnoseKeepsPolicy(t *testing.T) {
	t.Parallel()
	child := startCrashChild(t, t.TempDir(), "-request-timeout", "1ns")
	child.waitReplayed(t)
	status, raw, err := postJSON(child.url, "/diagnose", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"})
	if err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("diagnose: status %d err %v (%s), want 503", status, err, raw)
	}
	evs := childEvents(t, child, url.Values{"route": {"/diagnose"}, "policy": {"constant:a"}})
	if len(evs) != 1 || evs[0].Status != http.StatusServiceUnavailable {
		t.Fatalf("policy filter found %d events %+v, want the failed /diagnose", len(evs), evs)
	}
}

// TestStreamDiagnoseEventRegime: a streamed /diagnose stamps the
// overlap regime on its wide event, like every other compute request.
func TestStreamDiagnoseEventRegime(t *testing.T) {
	t.Parallel()
	child := startCrashChild(t, t.TempDir())
	child.waitReplayed(t)
	ingestAll(t, child, batchesOf(t))
	status, raw, err := postJSON(child.url, "/diagnose", evalRequest{Policy: "constant:a"})
	if err != nil || status != http.StatusOK {
		t.Fatalf("stream diagnose: status %d err %v (%s)", status, err, raw)
	}
	var diag diagnoseResponse
	if err := json.Unmarshal(raw, &diag); err != nil {
		t.Fatal(err)
	}
	evs := childEvents(t, child, url.Values{"route": {"/diagnose"}, "streamed": {"true"}})
	if len(evs) != 1 {
		t.Fatalf("got %d streamed /diagnose events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.ESSRatio != diag.ESS/float64(diag.N) || ev.MaxWeight != diag.MaxWeight || ev.ZeroSupport != diag.ZeroSupport {
		t.Fatalf("event regime = essRatio %g maxWeight %g zeroSupport %d, want %g %g %d",
			ev.ESSRatio, ev.MaxWeight, ev.ZeroSupport, diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
	}
}

// TestStreamDiagnoseRejectsEstimatePropensities: streamed /diagnose
// cannot estimate propensities any more than streamed /evaluate can,
// and says so with the same 400.
func TestStreamDiagnoseRejectsEstimatePropensities(t *testing.T) {
	t.Parallel()
	child := startCrashChild(t, t.TempDir())
	child.waitReplayed(t)
	ingestAll(t, child, batchesOf(t))
	req := evalRequest{Policy: "constant:a", Options: evalOptions{EstimatePropensities: true}}
	evalStatus, evalBody, err := postJSON(child.url, "/evaluate", req)
	if err != nil || evalStatus != http.StatusBadRequest {
		t.Fatalf("stream evaluate: status %d err %v (%s), want 400", evalStatus, err, evalBody)
	}
	status, body, err := postJSON(child.url, "/diagnose", req)
	if err != nil || status != http.StatusBadRequest || string(body) != string(evalBody) {
		t.Fatalf("stream diagnose: status %d err %v body %s, want 400 %s", status, err, body, evalBody)
	}
}
