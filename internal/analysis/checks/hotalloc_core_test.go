package checks_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"drnet/internal/analysis"
	"drnet/internal/analysis/checks"
)

// coreKernels are internal/core's estimator kernels, named by the
// function holding their per-record loop: the DM/IPS/DR record-range
// bodies dmFill, ipsFill and drFill (plus IPSViewCtx's self-normalized
// pass and DR's drSummarize), Bootstrap's per-resample drawResample and
// the refit-DR bootstrap's drRefitResampleValue.
var coreKernels = []string{
	"dmFill", "ipsFill", "IPSViewCtx", "drFill", "drSummarize",
	"SwitchDRViewCtx", "MatchedRewardsViewCtx", "DiagnoseViewCtx", "CrossFitDRViewCtx",
	"drawResample", "drRefitResampleValue",
}

// TestHotAllocCoversCoreKernels copies the real internal/core, injects
// a make into the first loop of every estimator kernel, and requires a
// hotalloc finding at each injection: a kernel that drops out of the
// analyzer's hot set (by a rename or a lost //lint:hot) fails here. The
// uninjected copy must stay clean.
func TestHotAllocCoversCoreKernels(t *testing.T) {
	src := filepath.Join("..", "..", "core")
	clean, injected := t.TempDir(), t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	markers := map[string]bool{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(name)
		if err := os.WriteFile(filepath.Join(clean, base), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		out, found := injectMakes(t, base, raw)
		for _, k := range found {
			markers[k] = true
		}
		if err := os.WriteFile(filepath.Join(injected, base), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range coreKernels {
		if !markers[k] {
			t.Fatalf("kernel %s not found in internal/core (or it has no loop)", k)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	load := func(dir, as string) []analysis.Diagnostic {
		pkg, err := loader.LoadDir(dir, as)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.Errs) > 0 {
			t.Fatalf("%s: %v", as, pkg.Errs)
		}
		return analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{checks.HotAlloc})
	}
	for _, d := range load(clean, "clean/internal/core") {
		t.Errorf("uninjected core: unexpected finding %s", d)
	}
	reported := map[string]bool{}
	for _, d := range load(injected, "injected/internal/core") {
		line, err := os.ReadFile(d.File)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Split(string(line), "\n")[d.Line-1]
		if i := strings.Index(text, "// injected:"); i >= 0 && strings.Contains(d.Message, "make") {
			reported[strings.TrimSpace(text[i+len("// injected:"):])] = true
			continue
		}
		t.Errorf("unexpected finding %s", d)
	}
	for _, k := range coreKernels {
		if !reported[k] {
			t.Errorf("hotalloc missed the make injected into %s", k)
		}
	}
}

// injectMakes inserts `_ = make([]float64, 1) // injected:<func>` at
// the top of the first loop of every coreKernels function in src and
// returns the edited source plus the kernels it touched.
func injectMakes(t *testing.T, name string, src []byte) ([]byte, []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range coreKernels {
		want[k] = true
	}
	type edit struct {
		off  int
		name string
	}
	var edits []edit
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !want[fd.Name.Name] {
			continue
		}
		var first *ast.BlockStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if first != nil {
				return false
			}
			switch l := n.(type) {
			case *ast.ForStmt:
				first = l.Body
			case *ast.RangeStmt:
				first = l.Body
			}
			return first == nil
		})
		if first != nil {
			edits = append(edits, edit{fset.Position(first.Lbrace).Offset + 1, fd.Name.Name})
		}
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].off > edits[j].off })
	out := append([]byte(nil), src...)
	var found []string
	for _, e := range edits {
		ins := "\n_ = make([]float64, 1) // injected:" + e.name + "\n"
		out = append(out[:e.off], append([]byte(ins), out[e.off:]...)...)
		found = append(found, e.name)
	}
	return out, found
}
