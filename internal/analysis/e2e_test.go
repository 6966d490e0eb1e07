package analysis

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefaultSuiteCleanTree is the invariant gate: the shipped tree has
// zero findings under the shipped suite. A red run here names exactly
// the file and rule that drifted.
func TestDefaultSuiteCleanTree(t *testing.T) {
	diags, err := Run(repoRoot(t), []string{"./..."}, DefaultSuite())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestDriverExitCodes builds the real cmd/echoimage-lint binary and
// checks its contract: exit 0 with no output on a clean tree, exit 1
// with file:line diagnostics on findings.
func TestDriverExitCodes(t *testing.T) {
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "echoimage-lint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/echoimage-lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build driver: %v\n%s", err, out)
	}

	t.Run("clean tree exits 0", func(t *testing.T) {
		clean := exec.Command(bin, "./...")
		clean.Dir = root
		out, err := clean.CombinedOutput()
		if err != nil {
			t.Fatalf("want exit 0 on clean tree, got %v\n%s", err, out)
		}
		if len(out) != 0 {
			t.Errorf("want no output on clean tree, got:\n%s", out)
		}
	})

	t.Run("findings exit 1 with diagnostics", func(t *testing.T) {
		// layering/undeclared has no DAG entry, so the default suite
		// reports it.
		dirty := exec.Command(bin, fixtureBase+"/layering/undeclared")
		dirty.Dir = root
		out, err := dirty.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Fatalf("want exit 1, got %v\n%s", err, out)
		}
		text := string(out)
		if !strings.Contains(text, "layering:") ||
			!strings.Contains(text, "undeclared.go:") {
			t.Errorf("diagnostic missing file/rule:\n%s", text)
		}
	})

	t.Run("list flag names every rule", func(t *testing.T) {
		list := exec.Command(bin, "-list")
		list.Dir = root
		out, err := list.CombinedOutput()
		if err != nil {
			t.Fatalf("-list: %v\n%s", err, out)
		}
		for _, a := range DefaultSuite() {
			if !strings.Contains(string(out), a.Name()) {
				t.Errorf("-list output missing rule %s:\n%s", a.Name(), out)
			}
		}
	})

	// The jsondriver fixture carries three rule hits: a live
	// goroutinelife finding, a lockguard finding silenced by an audited
	// ignore, and the package's missing layering DAG entry.
	fixture := fixtureBase + "/jsondriver/jsonpkg"

	t.Run("json emits every finding with its suppression verdict", func(t *testing.T) {
		cmd := exec.Command(bin, "-json", fixture)
		cmd.Dir = root
		stdout, err := cmd.Output()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Fatalf("want exit 1 (live findings remain), got %v\n%s", err, stdout)
		}
		var findings []struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Rule       string `json:"rule"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		}
		if err := json.Unmarshal(stdout, &findings); err != nil {
			t.Fatalf("output is not a JSON finding array: %v\n%s", err, stdout)
		}
		suppressed := map[string]bool{}
		for _, f := range findings {
			if f.File == "" || f.Line <= 0 || f.Rule == "" || f.Message == "" {
				t.Errorf("finding with empty field: %+v", f)
			}
			suppressed[f.Rule] = f.Suppressed
		}
		if v, ok := suppressed["lockguard"]; !ok || !v {
			t.Errorf("suppressed lockguard finding missing from -json output: %s", stdout)
		}
		if v, ok := suppressed["goroutinelife"]; !ok || v {
			t.Errorf("live goroutinelife finding missing or wrongly suppressed: %s", stdout)
		}
	})

	t.Run("rules filter runs only the named analyzers", func(t *testing.T) {
		cmd := exec.Command(bin, "-rules", "goroutinelife", fixture)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Fatalf("want exit 1, got %v\n%s", err, out)
		}
		text := string(out)
		if !strings.Contains(text, "goroutinelife:") {
			t.Errorf("filtered run lost its own finding:\n%s", text)
		}
		if strings.Contains(text, "layering:") {
			t.Errorf("filtered run leaked an unfiltered rule:\n%s", text)
		}
	})

	t.Run("rules filter keeps foreign ignores valid", func(t *testing.T) {
		// Only lockguard runs; its sole finding is suppressed, and the
		// suppression must not be reported as an unknown rule even
		// though no other analyzer in the filtered set exists.
		cmd := exec.Command(bin, "-rules", "lockguard", fixture)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("want exit 0 (only finding is suppressed), got %v\n%s", err, out)
		}
		if len(out) != 0 {
			t.Errorf("want no output, got:\n%s", out)
		}
	})

	t.Run("rules filter rejects unknown rule names", func(t *testing.T) {
		cmd := exec.Command(bin, "-rules", "nosuchrule", fixture)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Fatalf("want exit 2 on unknown -rules name, got %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "nosuchrule") {
			t.Errorf("error does not name the bad rule:\n%s", out)
		}
	})

	t.Run("json on the clean tree exits 0 with only suppressed findings", func(t *testing.T) {
		cmd := exec.Command(bin, "-json", "./...")
		cmd.Dir = root
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("want exit 0 on clean tree, got %v\n%s", err, stdout)
		}
		var findings []struct {
			Suppressed bool `json:"suppressed"`
		}
		if err := json.Unmarshal(stdout, &findings); err != nil {
			t.Fatalf("output is not a JSON finding array: %v\n%s", err, stdout)
		}
		for _, f := range findings {
			if !f.Suppressed {
				t.Errorf("clean tree reported an unsuppressed finding:\n%s", stdout)
			}
		}
	})
}
