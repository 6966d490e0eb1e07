package analysis

import (
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDataflowCoverage asserts the tree-wide analyzers actually see the
// whole tree: Load("./...") must enumerate every directory holding
// non-test Go sources (testdata excluded by the go tool's own rules),
// and the dataflow rules must be registered in the default suite —
// which takes no per-package gating for them, so visiting a package
// means checking it. A package that slips out of the sweep is a package
// where an unlocked guarded field or an unbounded goroutine ships
// unchecked.
func TestDataflowCoverage(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Dir] = true
	}

	missing := map[string]bool{}
	werr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		if dir := filepath.Dir(path); !loaded[dir] {
			missing[dir] = true
		}
		return nil
	})
	if werr != nil {
		t.Fatalf("walk: %v", werr)
	}
	if len(missing) > 0 {
		dirs := make([]string, 0, len(missing))
		for dir := range missing {
			dirs = append(dirs, dir)
		}
		sort.Strings(dirs)
		t.Errorf("packages on disk not covered by the ./... sweep: %v", dirs)
	}

	names := map[string]bool{}
	for _, a := range DefaultSuite() {
		names[a.Name()] = true
	}
	for _, rule := range []string{"goroutinelife", "lockguard"} {
		if !names[rule] {
			t.Errorf("default suite does not register %s", rule)
		}
	}
}
