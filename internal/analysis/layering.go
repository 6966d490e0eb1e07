package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// LayerRule declares what one package may import.
type LayerRule struct {
	// AllowedProject is the exact set of project import paths this
	// package may depend on. Empty means "no project imports".
	AllowedProject []string
	// AnyProject marks a wiring layer (cmd binaries, the facade's
	// examples): project imports are unconstrained.
	AnyProject bool
	// ForbiddenStd rejects standard-library imports whose path equals a
	// listed prefix or sits under it ("os" rejects "os" and "os/exec").
	// The pure math layer uses it to stay free of I/O.
	ForbiddenStd []string
}

// LayeringConfig is the declared import DAG: every project package must
// appear, either exactly or under a "/..." wildcard entry. A package the
// DAG does not know is itself a violation, so the map stays exhaustive
// as the tree grows.
type LayeringConfig struct {
	// Module is the module path; imports under it are project imports.
	Module string
	// Packages maps an import path — exact, or a prefix wildcard ending
	// in "/..." — to its rule. Exact entries win over wildcards.
	Packages map[string]LayerRule
}

// Layering enforces the declared import DAG of the module: the pure math
// layer imports no project code and no net/os, core never sees the
// serving layer, telemetry never sees core, and only the daemon wires
// proto, registry, telemetry and core together.
type Layering struct {
	Config LayeringConfig
}

// NewLayering builds the analyzer from a declared DAG.
func NewLayering(cfg LayeringConfig) *Layering { return &Layering{Config: cfg} }

// Name implements Analyzer.
func (l *Layering) Name() string { return "layering" }

// rule resolves the declared rule for a package path: exact entry first,
// then the longest matching "/..." wildcard.
func (l *Layering) rule(path string) (LayerRule, bool) {
	if r, ok := l.Config.Packages[path]; ok {
		return r, true
	}
	bestLen := -1
	var best LayerRule
	for pat, r := range l.Config.Packages {
		if !strings.HasSuffix(pat, "/...") {
			continue
		}
		prefix := strings.TrimSuffix(pat, "/...")
		if (path == prefix || strings.HasPrefix(path, prefix+"/")) && len(prefix) > bestLen {
			bestLen, best = len(prefix), r
		}
	}
	return best, bestLen >= 0
}

func (l *Layering) isProject(path string) bool {
	return path == l.Config.Module || strings.HasPrefix(path, l.Config.Module+"/")
}

// Check implements Analyzer.
func (l *Layering) Check(pkg *Package) []Diagnostic {
	if !l.isProject(pkg.Path) {
		return nil
	}
	rule, declared := l.rule(pkg.Path)
	if !declared {
		var d []Diagnostic
		for _, f := range pkg.Files {
			d = append(d, Diagnostic{
				Pos:  pkg.Fset.Position(f.Name.Pos()),
				Rule: l.Name(),
				Message: fmt.Sprintf("package %q is not declared in the layering DAG; add it to the LayeringConfig with its allowed imports",
					pkg.Path),
			})
			break // one finding per package, anchored to the first file
		}
		return d
	}
	allowed := make(map[string]bool, len(rule.AllowedProject))
	for _, p := range rule.AllowedProject {
		allowed[p] = true
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			pos := pkg.Fset.Position(imp.Pos())
			if l.isProject(path) {
				if !rule.AnyProject && !allowed[path] {
					diags = append(diags, Diagnostic{Pos: pos, Rule: l.Name(),
						Message: fmt.Sprintf("package %q may not import %q (allowed project imports: %s)",
							pkg.Path, path, describeAllowed(rule.AllowedProject))})
				}
				continue
			}
			for _, banned := range rule.ForbiddenStd {
				if path == banned || strings.HasPrefix(path, banned+"/") {
					diags = append(diags, Diagnostic{Pos: pos, Rule: l.Name(),
						Message: fmt.Sprintf("package %q may not import %q (the %q tree is banned in this layer)",
							pkg.Path, path, banned)})
					break
				}
			}
		}
	}
	return diags
}

func describeAllowed(paths []string) string {
	if len(paths) == 0 {
		return "none"
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	return strings.Join(sorted, ", ")
}

var _ Analyzer = (*Layering)(nil)
