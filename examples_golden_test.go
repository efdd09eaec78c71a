package drnet_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"drnet/internal/golden"
)

// TestGoldenExamples builds every program under examples/ and pins its
// stdout: each is a fixed-seed walkthrough, so any estimator change
// that moves a printed digit shows up here. Regenerate with
// go test . -run GoldenExamples -args -update.
func TestGoldenExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	names, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Skip("go toolchain not available")
		}
	}
	bin := t.TempDir()
	build := exec.Command(gobin, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, m := range names {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			golden.Check(t, filepath.Join("testdata", "golden", "examples", name+".txt"), stdout.Bytes())
		})
	}
}
