package analysis

import "testing"

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
