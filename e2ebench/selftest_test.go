package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDrevald compiles the program under test once per test binary.
func buildDrevald(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "drevald")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/drevald")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build drevald: %v\n%s", err, out)
	}
	return bin
}

// corrupter alters one digit of the at-th POST response body, so the
// body stays valid JSON and only the benchmark's checks can catch it.
type corrupter struct {
	next  http.RoundTripper
	at, n int
}

func (c *corrupter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost {
		return resp, err
	}
	c.n++
	if c.n != c.at {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if i := bytes.LastIndexAny(body, "0123456789"); i >= 0 {
		body[i] = '0' + (body[i]-'0'+1)%10
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func tinyConfig(t *testing.T, bin, workload string) config {
	return config{
		workload: workload, seed: 3, seconds: 1, root: t.TempDir(), drevald: bin,
		ops: 6, warmup: 2, replay: 4, setups: 1, probeEvery: 1, stealWindow: 40 * time.Millisecond,
	}
}

// A corrupted response body must count as exactly one failed op, on
// the evaluate gate and on the ingest gate alike, while the same run
// without corruption fails nothing.
func TestCorruptedBodyIsAFailedOp(t *testing.T) {
	bin := buildDrevald(t)
	cases := []struct {
		name, workload string
		at             int    // the POST whose response is corrupted
		check          string // what the failure must name
	}{
		// POST 1 is the first /evaluate: it has no earlier body to
		// match, so only the oracle comparison can reject it.
		{"evaluate_first_body", "evaluate_narrow", 1, "oracle"},
		// POSTs 1-2 are warm-up and POST 3 the first timed op, so POST 4
		// must differ from the run's first body.
		{"evaluate_later_body", "evaluate_narrow", 4, "first response"},
		// POST 1 is the read that registers the policy and POSTs 2-3
		// are warm-up acks, so POST 4 is the first timed ack.
		{"ingest_ack", "ingest_stream", 4, "epoch"},
	}
	clean := map[string]*report{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if clean[c.workload] == nil {
				rep, err := runBench(tinyConfig(t, bin, c.workload))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 {
					t.Fatalf("clean run: correct=%v failed=%d errors=%v", rep.Result.Correct, rep.Result.Failed, rep.Errors)
				}
				clean[c.workload] = rep
			}
			cfg := tinyConfig(t, bin, c.workload)
			cfg.transport = &corrupter{next: newTransport(), at: c.at}
			rep, err := runBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := clean[c.workload].Result.Attempted
			if rep.Result.Correct || rep.Result.Failed != 1 || rep.Result.Attempted != want {
				t.Fatalf("corrupted run: correct=%v failed=%d attempted=%d (clean %d) errors=%v",
					rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted, want, rep.Errors)
			}
			if !strings.Contains(rep.Errors[0], c.check) {
				t.Fatalf("corrupted run failed for %q, want a failure naming %q", rep.Errors[0], c.check)
			}
		})
	}
}

// Every run emits exactly the metrics BENCHMARK.json declares for its
// mode, with the declared units.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	bin := buildDrevald(t)
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, bin, w.Name)
			cfg.trace = traced
			rep, err := runBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			got := rep.Result.Metrics
			if len(got) != len(want) || !rep.Result.Correct {
				t.Errorf("%s trace=%v: %d metrics, want %d; correct=%v errors=%v", w.Name, traced, len(got), len(want), rep.Result.Correct, rep.Errors)
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, g, m.Unit)
				}
			}
		}
	}
}
