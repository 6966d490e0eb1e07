package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// ignoreMarker opens a suppression comment:
//
//	//echoimage:lint-ignore <rule> <reason>
//
// The comment silences diagnostics of <rule> on its own line, or — when
// its line is clean, the standalone-comment idiom — on the line directly
// below. One comment, one rule, one line: a second violation needs a
// second audited reason.
const ignoreMarker = "//echoimage:lint-ignore"

// ignoreRule is the rule name under which malformed or unknown ignore
// comments are reported. It is not itself suppressible.
const ignoreRule = "lint-ignore"

// ignoreComment is one parsed suppression comment.
type ignoreComment struct {
	pos  token.Position
	rule string
}

// evalIgnores resolves diagnostics of pkg against its lint-ignore
// comments: matched diagnostics are dropped, and every ignore comment
// that names an unknown rule or omits its reason becomes an additional
// diagnostic.
func evalIgnores(pkg *Package, diags []Diagnostic, known map[string]bool) []Diagnostic {
	var ignores []ignoreComment
	var bad []Diagnostic
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreMarker) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignoreMarker)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{Pos: pos, Rule: ignoreRule,
						Message: "malformed ignore comment: want //echoimage:lint-ignore <rule> <reason>"})
					continue
				}
				rule := fields[0]
				if !known[rule] {
					bad = append(bad, Diagnostic{Pos: pos, Rule: ignoreRule,
						Message: fmt.Sprintf("unknown rule %q in ignore comment", rule)})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{Pos: pos, Rule: ignoreRule,
						Message: fmt.Sprintf("ignore comment for %q needs a reason", rule)})
					continue
				}
				ignores = append(ignores, ignoreComment{pos: pos, rule: rule})
			}
		}
	}
	return append(suppress(diags, ignores), bad...)
}

// suppress drops, for each ignore, the diagnostics of its rule on the
// comment's own line — or, when that line has none, on the next line.
func suppress(diags []Diagnostic, ignores []ignoreComment) []Diagnostic {
	type key struct {
		file string
		line int
		rule string
	}
	have := make(map[key]bool, len(diags))
	for _, d := range diags {
		have[key{d.Pos.Filename, d.Pos.Line, d.Rule}] = true
	}
	dead := make(map[key]bool, len(ignores))
	for _, ig := range ignores {
		k := key{ig.pos.Filename, ig.pos.Line, ig.rule}
		if !have[k] {
			k.line++ // standalone comment above the offending line
		}
		dead[k] = true
	}
	kept := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !dead[key{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			kept = append(kept, d)
		}
	}
	return kept
}
