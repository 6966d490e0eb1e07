package analysis

import "testing"

func TestCtxDisciplineGolden(t *testing.T) {
	diags := runFixture(t, []Analyzer{NewCtxDiscipline()},
		"ctxdiscipline/ctxpkg", "ctxdiscipline/ctxmain")
	checkGolden(t, "ctxdiscipline", diags)
}
