// Package golden compares program output against checked-in golden
// files. Tests that import it accept -update to rewrite the files from
// the current output instead of comparing.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// Check fails t unless got equals the contents of path, reporting each
// differing line. With -update it first writes got to path.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
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
		t.Errorf("output drifted from %s:\n%s", path, Diff(string(got), string(want)))
	}
}

// Diff lists the lines that differ between got and want, by position.
func Diff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			fmt.Fprintf(&b, "line %d\n  got:  %s\n  want: %s\n", i+1, gl, wl)
		}
	}
	return b.String()
}
