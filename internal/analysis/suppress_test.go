package analysis

import (
	"strings"
	"testing"
)

// suppressSuite pairs floateq (the suppressed rule) with ctxdiscipline
// (a second known rule, so a wrong-rule ignore is not "unknown").
func suppressSuite() []Analyzer {
	return []Analyzer{
		NewFloatEq(FloatEqConfig{Packages: []string{fixtureBase + "/suppress/ignorepkg"}}),
		NewCtxDiscipline(),
	}
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
	if !hasRuleNear(byLine, src["func Unsuppressed"], "floateq") {
		t.Error("Unsuppressed: floateq finding missing")
	}
	// An ignore for a different rule does not silence floateq.
	if !hasRuleNear(byLine, src["func WrongRule"], "floateq") {
		t.Error("WrongRule: floateq finding should survive a ctxdiscipline ignore")
	}
	// One ignore covers exactly one line: the second comparison survives.
	onePos := src["func OneLineOnly"]
	var oneLine []Diagnostic
	for line := onePos; line < onePos+6; line++ {
		oneLine = append(oneLine, byLine[line]...)
	}
	if len(oneLine) != 1 || oneLine[0].Rule != "floateq" {
		t.Errorf("OneLineOnly: want exactly 1 surviving floateq finding, got %v", oneLine)
	}
	// Unknown rule and missing reason are lint-ignore findings.
	if !hasRuleNear(byLine, src["func Unknown"], "lint-ignore") {
		t.Error("Unknown: missing lint-ignore finding for unknown rule")
	}
	if !hasRuleNear(byLine, src["func NoReason"], "lint-ignore") {
		t.Error("NoReason: missing lint-ignore finding for omitted reason")
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
		} {
			if strings.HasPrefix(line, marker) {
				idx[marker] = i + 1
			}
		}
	}
	return idx
}
