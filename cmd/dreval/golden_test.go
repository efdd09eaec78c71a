package main

import (
	"path/filepath"
	"testing"

	"drnet/internal/golden"
)

// TestGoldenOutput pins dreval's printed report on the writeTestTrace
// fixture, with and without the DR bootstrap interval. Regenerate with
// go test ./cmd/dreval -run Golden -args -update.
func TestGoldenOutput(t *testing.T) {
	path := writeTestTrace(t, false)
	for _, c := range []struct {
		name string
		b    int
	}{{"constant_c", 0}, {"constant_c_bootstrap", 200}} {
		out := captureStdout(t, func() error {
			return run(path, "csv", "constant:c", false, 0, false, c.b, 1, 0, false, nil)
		})
		golden.Check(t, filepath.Join("testdata", "golden", c.name+".txt"), []byte(out))
	}
}
