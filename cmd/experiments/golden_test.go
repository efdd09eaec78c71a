package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"drnet/internal/golden"
	"drnet/internal/parallel"
)

// TestGoldenAllExperiments pins the full text of
// `experiments -run all -runs 3 -seed 1` at worker widths 1 and 2: the
// estimators behind every table must keep producing the same bytes.
// Regenerate with go test ./cmd/experiments -run Golden -args -update.
func TestGoldenAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	defer parallel.SetDefaultWorkers(0)
	for _, w := range []int{1, 2} {
		parallel.SetDefaultWorkers(w)
		var buf bytes.Buffer
		if err := run(&buf, "all", 3, 1, 1); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join("testdata", "golden", "all_runs3_seed1.txt"), buf.Bytes())
	}
}
