package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenResponseBodies pins the exact bytes of drevald's compute
// responses, batch and streamed, through a real drevald process (this
// test binary re-executed as the server, see TestMain). Driving the
// binary by its flags keeps the test independent of how the server is
// assembled in code. Regenerate with
// go test ./cmd/drevald -run Golden -args -update.
func TestGoldenResponseBodies(t *testing.T) {
	child := startCrashChild(t, t.TempDir(), "-workers", "2")
	child.waitReplayed(t)
	records := testTraceJSON(t, false)
	for i := 0; i < len(records); i += 100 {
		if status, raw, err := postJSON(child.url, "/ingest", ingestRequest{Records: records[i : i+100]}); err != nil || status != http.StatusOK {
			t.Fatalf("ingest: status %d err %v (%s)", status, err, raw)
		}
	}

	// constant:a is healthy under the default thresholds; constant:c
	// leaves most records with zero support and degrades.
	cases := []struct {
		name   string
		path   string
		body   evalRequest
		status int
	}{
		{"evaluate_healthy", "/evaluate", evalRequest{Trace: records, Policy: "constant:a"}, http.StatusOK},
		{"evaluate_degraded", "/evaluate", evalRequest{Trace: records, Policy: "constant:c"}, http.StatusOK},
		{"evaluate_bootstrap", "/evaluate", evalRequest{Trace: records, Policy: "constant:a", Options: evalOptions{Bootstrap: 50, Seed: 9}}, http.StatusOK},
		{"diagnose", "/diagnose", evalRequest{Trace: records, Policy: "constant:a"}, http.StatusOK},
		{"stream_evaluate_healthy", "/evaluate", evalRequest{Policy: "constant:a"}, http.StatusOK},
		{"stream_evaluate_degraded", "/evaluate", evalRequest{Policy: "constant:c"}, http.StatusOK},
		{"stream_evaluate_bootstrap", "/evaluate", evalRequest{Policy: "constant:a", Options: evalOptions{Bootstrap: 50, Seed: 9}}, http.StatusBadRequest},
		{"stream_diagnose", "/diagnose", evalRequest{Policy: "constant:a"}, http.StatusOK},
	}
	for _, c := range cases {
		status, got, err := postJSON(child.url, c.path, c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if status != c.status {
			t.Fatalf("%s: status %d, want %d (%s)", c.name, status, c.status, got)
		}
		path := filepath.Join("testdata", "golden", c.name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -args -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body drifted from %s\ngot:  %s\nwant: %s", c.name, path, got, want)
		}
		if !json.Valid(got) {
			t.Errorf("%s: body is not JSON: %s", c.name, got)
		}
	}
}
