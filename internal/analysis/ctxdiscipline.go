package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CtxDiscipline enforces the cancellation contract: context.Context is
// always the first parameter, and new root contexts (context.Background /
// context.TODO) appear only in main and in tests — everywhere else the
// caller's context must be threaded through, or a cancelled request
// keeps burning pipeline CPU. A long-lived component that owns its own
// lifetime roots its context under an audited lint-ignore.
type CtxDiscipline struct{}

// NewCtxDiscipline builds the analyzer.
func NewCtxDiscipline() *CtxDiscipline { return &CtxDiscipline{} }

// Name implements Analyzer.
func (c *CtxDiscipline) Name() string { return "ctxdiscipline" }

// Doc implements Analyzer.
func (c *CtxDiscipline) Doc() string {
	return "context.Context must be the first parameter; context.Background/TODO only in main and tests"
}

// Check implements Analyzer.
func (c *CtxDiscipline) Check(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		isTest := strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			diags = append(diags, c.checkParams(pkg, fn)...)
			if pkg.Types.Name() == "main" || isTest {
				continue
			}
			diags = append(diags, c.checkRoots(pkg, fn)...)
		}
	}
	return diags
}

// checkParams flags a context.Context parameter that is not first.
func (c *CtxDiscipline) checkParams(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil
	}
	var diags []Diagnostic
	idx := 0
	firstIsCtx := false
	for fi, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies a position
		}
		isCtx := isContextType(pkg.Info.Types[field.Type].Type)
		if fi == 0 && isCtx {
			firstIsCtx = true
		}
		if isCtx && idx > 0 && !firstIsCtx {
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(field.Pos()),
				Rule: c.Name(),
				Message: fmt.Sprintf("context.Context must be the first parameter of %s (found at position %d)",
					funcDisplayName(fn), idx+1),
			})
		}
		idx += n
	}
	return diags
}

// checkRoots flags context.Background / context.TODO calls.
func (c *CtxDiscipline) checkRoots(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		if !isPkgIdent(pkg, sel.X, "context") {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:  pkg.Fset.Position(call.Pos()),
			Rule: c.Name(),
			Message: fmt.Sprintf("context.%s in %s: thread the caller's context instead (only main and tests may root a new context)",
				sel.Sel.Name, funcDisplayName(fn)),
		})
		return true
	})
	return diags
}

// funcDisplayName renders "Func" or "(Recv).Method" for diagnostics.
func funcDisplayName(fn *ast.FuncDecl) string {
	if recv := receiverTypeName(fn); recv != "" {
		return "(" + recv + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

// receiverTypeName extracts the bare receiver type name ("System" from
// *System), or "" for plain functions.
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (Type[T]) index the base identifier.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isContextType reports whether t is the named type context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isPkgIdent reports whether expr is an identifier naming an import of
// the given package path.
func isPkgIdent(pkg *Package, expr ast.Expr, path string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

var _ Analyzer = (*CtxDiscipline)(nil)
