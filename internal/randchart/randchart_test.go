package randchart

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rmtest/internal/sim"
)

func TestChartsCompile(t *testing.T) {
	for seed := uint64(1); seed <= 500; seed++ {
		if _, err := Chart(sim.NewRand(seed)).Compile(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// testOnly lists the packages that exist for tests alone: this random
// chart generator, and the chart interpreter the tests use as their
// executable reference.
var testOnly = []string{"rmtest/internal/randchart", "rmtest/internal/interp"}

// TestOnlyTestsImport keeps the test-only packages out of every shipped
// binary: no non-test file in the module may import one.
func TestOnlyTestsImport(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && name != "." && name != "..") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); slices.Contains(testOnly, p) {
				t.Errorf("%s imports %s; only _test.go files may", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
