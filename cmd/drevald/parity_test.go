package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/traceio"
)

// TestDrevalMatchesEvaluate holds the offline CLI and the service to
// one answer: dreval's printed DM, IPS, DR and DR bootstrap interval
// must equal an /evaluate, served by a default-config Server (New with
// the wall clock), of the same records, policy, seed and resample count
// (dreval's own 600-record test fixture).
func TestDrevalMatchesEvaluate(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Skip("go toolchain not available")
		}
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dreval")
	if out, err := exec.Command(gobin, "build", "-o", bin, "../dreval").CombinedOutput(); err != nil {
		t.Fatalf("go build ../dreval: %v\n%s", err, out)
	}

	// The fixture of cmd/dreval's tests: four discrete contexts, an
	// ε-greedy logging policy, decisions a/b/c.
	rng := mathx.NewRNG(1)
	old := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.4,
	}
	var ctxs []float64
	for i := 0; i < 600; i++ {
		ctxs = append(ctxs, float64(rng.Intn(4)))
	}
	tr := core.CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return x*float64(d+1) + rng.Normal(0, 0.1)
	}, rng)
	ft := traceio.Flatten(tr,
		func(x float64) []float64 { return []float64{x} },
		func(d int) string { return []string{"a", "b", "c"}[d] })
	var csv bytes.Buffer
	if err := traceio.WriteCSV(&csv, ft); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Send the service exactly the records dreval parses.
	parsed, err := traceio.ReadCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		policy string
		clip   float64
	}{{"constant:c", 0}, {"constant:a", 5}} {
		cmd := exec.Command(bin, "-trace", path, "-policy", c.policy, "-clip", fmt.Sprint(c.clip), "-bootstrap", "200", "-seed", "1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: dreval: %v\n%s", c.policy, err, stderr.Bytes())
		}

		_, srv := newTestServer(t, nil)
		resp := post(t, srv, "/evaluate", evalRequest{
			Trace:   parsed.Records,
			Policy:  c.policy,
			Options: evalOptions{Clip: c.clip, Bootstrap: 200, Seed: 1},
		})
		var got evalResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /evaluate status %d: %v", c.policy, resp.StatusCode, err)
		}
		if got.DRInterval == nil {
			t.Fatalf("%s: /evaluate returned no drInterval", c.policy)
		}
		str := func(e estimateJSON) string {
			return core.Estimate{Value: e.Value, StdErr: e.StdErr, N: e.N, ESS: e.ESS}.String()
		}
		for _, want := range []string{
			"DM  (table model):  " + str(got.DM),
			"IPS:                " + str(got.IPS),
			"DR:                 " + str(got.DR),
			fmt.Sprintf("DR 95%% bootstrap CI: [%.4f, %.4f]", got.DRInterval.Lo, got.DRInterval.Hi),
		} {
			if !strings.Contains(string(out), want+"\n") {
				t.Errorf("%s: dreval output lacks the service's %q:\n%s", c.policy, want, out)
			}
		}
	}
}
