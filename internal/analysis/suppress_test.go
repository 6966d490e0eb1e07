package analysis

import (
	"strings"
	"testing"
)

// suppressSuite pairs ctxdiscipline (the suppressed rule) with
// goroutinelife (a second known rule, so a wrong-rule ignore is not
// "unknown").
func suppressSuite() []Analyzer {
	return []Analyzer{NewCtxDiscipline(), NewGoroutineLife()}
}

func TestSuppressionGolden(t *testing.T) {
	diags := runFixture(t, suppressSuite(), "suppress/ignorepkg")
	checkGolden(t, "suppress", diags)
}

// TestSuppressionSemantics asserts the load-bearing properties directly,
// independent of golden formatting: an ignore silences exactly one rule
// on exactly one line, and bad ignore comments surface as findings.
func TestSuppressionSemantics(t *testing.T) {
	diags := runFixture(t, suppressSuite(), "suppress/ignorepkg")
	byLine := map[int][]Diagnostic{}
	for _, d := range diags {
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d)
	}
	src := fixtureLines(t, "testdata/src/suppress/ignorepkg/ignorepkg.go")

	// Same-line and line-above suppressions are silent.
	for _, fn := range []string{"func Trailing", "func Above"} {
		for line := src[fn]; line < src[fn]+4; line++ {
			if len(byLine[line]) != 0 {
				t.Errorf("%s: unexpected diagnostics near line %d: %v", fn, line, byLine[line])
			}
		}
	}
	// The unsuppressed violation survives.
	if !hasRuleNear(byLine, src["func Unsuppressed"], "ctxdiscipline") {
		t.Error("Unsuppressed: ctxdiscipline finding missing")
	}
	// An ignore for a different rule does not silence ctxdiscipline.
	if !hasRuleNear(byLine, src["func WrongRule"], "ctxdiscipline") {
		t.Error("WrongRule: ctxdiscipline finding should survive a goroutinelife ignore")
	}
	// One ignore covers exactly one line: the second root survives.
	onePos := src["func OneLineOnly"]
	var oneLine []Diagnostic
	for line := onePos; line < onePos+6; line++ {
		oneLine = append(oneLine, byLine[line]...)
	}
	if len(oneLine) != 1 || oneLine[0].Rule != "ctxdiscipline" {
		t.Errorf("OneLineOnly: want exactly 1 surviving ctxdiscipline finding, got %v", oneLine)
	}
	// Unknown rule, missing reason and missing rule are lint-ignore
	// findings.
	if !hasRuleNear(byLine, src["func Unknown"], "lint-ignore") {
		t.Error("Unknown: missing lint-ignore finding for unknown rule")
	}
	if !hasRuleNear(byLine, src["func NoReason"], "lint-ignore") {
		t.Error("NoReason: missing lint-ignore finding for omitted reason")
	}
	if !hasRuleNear(byLine, src["func Malformed"], "lint-ignore") {
		t.Error("Malformed: missing lint-ignore finding for a comment naming no rule")
	}
}

// hasRuleNear reports whether a diagnostic of rule sits within a few
// lines after the marker line.
func hasRuleNear(byLine map[int][]Diagnostic, start int, rule string) bool {
	for line := start; line < start+6; line++ {
		for _, d := range byLine[line] {
			if d.Rule == rule {
				return true
			}
		}
	}
	return false
}

// fixtureLines indexes the 1-based line of each marker substring, so
// the assertions survive fixture edits.
func fixtureLines(t *testing.T, relPath string) map[string]int {
	t.Helper()
	data := readFixture(t, relPath)
	idx := map[string]int{}
	for i, line := range strings.Split(data, "\n") {
		for _, marker := range []string{
			"func Trailing", "func Above", "func Unsuppressed",
			"func WrongRule", "func OneLineOnly", "func Unknown", "func NoReason",
			"func Malformed",
		} {
			if strings.HasPrefix(line, marker) {
				idx[marker] = i + 1
			}
		}
	}
	return idx
}
