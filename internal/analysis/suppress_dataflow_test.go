package analysis

import (
	"strings"
	"testing"
)

// dataflowSuppressSuite runs the two dataflow rules the fixture
// exercises together, so cross-rule ignores resolve as "known rule,
// wrong line" rather than "unknown rule".
func dataflowSuppressSuite() []Analyzer {
	return []Analyzer{NewGoroutineLife(), NewLockGuard()}
}

func TestDataflowSuppressionGolden(t *testing.T) {
	diags := runFixture(t, dataflowSuppressSuite(), "suppress/dataflowpkg")
	checkGolden(t, "suppress_dataflow", diags)
}

// TestDataflowSuppressionSemantics pins the interaction rules for the
// dataflow analyzers independent of golden formatting: an ignore covers
// one rule on one line, a wrong-rule ignore silences nothing, and an
// unknown rule name is itself a finding.
func TestDataflowSuppressionSemantics(t *testing.T) {
	diags := runFixture(t, dataflowSuppressSuite(), "suppress/dataflowpkg")
	byLine := map[int][]Diagnostic{}
	for _, d := range diags {
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d)
	}
	src := markerLines(t, "testdata/src/suppress/dataflowpkg/dataflowpkg.go", []string{
		"func SuppressedRace", "func WrongRuleIgnore", "func OnePerLine", "func UnknownRule",
	})

	// The audited lockguard violation is silent.
	for line := src["func SuppressedRace"]; line < src["func SuppressedRace"]+4; line++ {
		if len(byLine[line]) != 0 {
			t.Errorf("SuppressedRace: unexpected diagnostics near line %d: %v", line, byLine[line])
		}
	}
	// A goroutinelife ignore does not silence a lockguard finding.
	if !hasRuleNear(byLine, src["func WrongRuleIgnore"], "lockguard") {
		t.Error("WrongRuleIgnore: lockguard finding should survive a goroutinelife ignore")
	}
	// One ignore, one line: exactly one of the two spawns survives.
	var spawns []Diagnostic
	for line := src["func OnePerLine"]; line < src["func OnePerLine"]+5; line++ {
		spawns = append(spawns, byLine[line]...)
	}
	if len(spawns) != 1 || spawns[0].Rule != "goroutinelife" {
		t.Errorf("OnePerLine: want exactly 1 surviving goroutinelife finding, got %v", spawns)
	}
	// The misspelled rule is a lint-ignore finding and silences nothing.
	if !hasRuleNear(byLine, src["func UnknownRule"], "lint-ignore") {
		t.Error("UnknownRule: missing lint-ignore finding for misspelled rule")
	}
	if !hasRuleNear(byLine, src["func UnknownRule"], "lockguard") {
		t.Error("UnknownRule: lockguard finding should survive a misspelled ignore")
	}
}

// markerLines indexes the 1-based line of each marker substring.
func markerLines(t *testing.T, relPath string, markers []string) map[string]int {
	t.Helper()
	data := readFixture(t, relPath)
	idx := map[string]int{}
	for i, line := range strings.Split(data, "\n") {
		for _, marker := range markers {
			if strings.HasPrefix(line, marker) {
				idx[marker] = i + 1
			}
		}
	}
	return idx
}
