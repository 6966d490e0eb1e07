// Package analysis is the project's lint suite: a zero-dependency
// static-analysis suite (stdlib go/parser, go/ast, go/token, go/types
// only) that enforces the architectural invariants the compiler, vet,
// the race detector and the tests do not reliably catch — the layered
// import DAG, context-first cancellation discipline, the closed
// stable-error-code set, goroutine lifecycles and guarded-field locking.
//
// Invariants live here as code, not prose: DESIGN.md documents them,
// suite.go declares them, and TestDefaultSuiteCleanTree (which `make
// lint` runs) fails when the tree drifts. A finding that is intentional
// is silenced with an explicit, audited comment:
//
//	//echoimage:lint-ignore <rule> <reason>
//
// placed on the offending line or on the line directly above it. Each
// comment silences exactly one rule on exactly one line; unknown rule
// names in an ignore comment are themselves diagnostics, so suppressions
// cannot rot silently.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line: rule: message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical diagnostic line.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one architectural invariant. Check inspects a single
// typechecked package and reports violations; an analyzer whose
// invariant does not apply to the package returns nil.
type Analyzer interface {
	// Name is the rule identifier used in diagnostics and in
	// //echoimage:lint-ignore comments.
	Name() string
	// Check reports violations in pkg.
	Check(pkg *Package) []Diagnostic
}

// Run loads the packages matched by patterns (relative to dir), runs
// every analyzer over every loaded package, drops the diagnostics that
// a lint-ignore comment suppresses, and returns the rest sorted by
// position. File names in the result are relative to dir when inside it.
func Run(dir string, patterns []string, analyzers []Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pd []Diagnostic
		for _, a := range analyzers {
			pd = append(pd, a.Check(pkg)...)
		}
		diags = append(diags, evalIgnores(pkg, pd, known)...)
	}
	relativize(dir, diags)
	sortDiagnostics(diags)
	return diags, nil
}

// relativize rewrites absolute diagnostic file names to dir-relative
// ones, for stable output independent of where the tree is checked out.
func relativize(dir string, diags []Diagnostic) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(abs, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
