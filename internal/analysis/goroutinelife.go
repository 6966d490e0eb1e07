package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLife enforces bounded goroutine lifetimes outside package
// main and tests: every `go` statement must spawn a body that provably
// reacts to shutdown — it selects or receives on a channel (a
// context.Done, a stop channel, or a work channel that closes) — or is
// registered with a sync.WaitGroup the owner waits on. A goroutine with
// neither has no termination story: it outlives Close, keeps its
// captures alive, and under churn accumulates into the slow leak that
// only shows up weeks into uptime.
//
// The spawned callee is resolved through same-package function and
// method declarations (`go r.runHandoff(...)` is checked against
// runHandoff's body). A spawn of a function the analyzer cannot see
// (another package's, or a function value) is a finding: wrap it in a
// local closure that carries the termination signal.
type GoroutineLife struct{}

// NewGoroutineLife builds the analyzer.
func NewGoroutineLife() *GoroutineLife { return &GoroutineLife{} }

// Name implements Analyzer.
func (g *GoroutineLife) Name() string { return "goroutinelife" }

// Check implements Analyzer.
func (g *GoroutineLife) Check(pkg *Package) []Diagnostic {
	if pkg.Types.Name() == "main" {
		return nil
	}
	decls := funcDeclsByObject(pkg)
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			diags = append(diags, g.checkSpawn(pkg, decls, gs)...)
			return true
		})
	}
	return diags
}

// checkSpawn verifies one go statement's termination story.
func (g *GoroutineLife) checkSpawn(pkg *Package, decls map[types.Object]*ast.FuncDecl, gs *ast.GoStmt) []Diagnostic {
	pos := pkg.Fset.Position(gs.Pos())
	body, name := spawnBody(pkg, decls, gs.Call)
	if body == nil {
		return []Diagnostic{{Pos: pos, Rule: g.Name(),
			Message: fmt.Sprintf("goroutine body %s is not analyzable here: spawn a local closure that selects on a stop signal or registers with a sync.WaitGroup", name)}}
	}
	if terminable(pkg, body) {
		return nil
	}
	return []Diagnostic{{Pos: pos, Rule: g.Name(),
		Message: fmt.Sprintf("goroutine %s neither selects on a context/stop channel nor registers with a sync.WaitGroup; it cannot be shut down or awaited", name)}}
}

// spawnBody resolves the spawned call to an analyzable body: a func
// literal's own body, or the declaration of a same-package function or
// method.
func spawnBody(pkg *Package, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) (*ast.BlockStmt, string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, "func literal"
	case *ast.Ident:
		if fd := decls[pkg.Info.Uses[fun]]; fd != nil {
			return fd.Body, fun.Name
		}
		return nil, fun.Name
	case *ast.SelectorExpr:
		if fd := decls[pkg.Info.Uses[fun.Sel]]; fd != nil {
			return fd.Body, funcDisplayName(fd)
		}
		return nil, fun.Sel.Name
	}
	return nil, "expression"
}

// terminable reports whether body contains any recognized termination
// mechanism: a select statement, a channel receive, a range over a
// channel, or a sync.WaitGroup Done/Wait.
func terminable(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectStmt:
			if len(e.Body.List) > 0 {
				found = true
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pkg.Info.Types[e.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupCall(pkg, e, "Done") || isWaitGroupCall(pkg, e, "Wait") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupCall reports whether call invokes the named method on a
// sync.WaitGroup.
func isWaitGroupCall(pkg *Package, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	return isNamedType(s.Recv(), "sync", "WaitGroup")
}

// isNamedType reports whether t (possibly behind a pointer) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// funcDeclsByObject indexes the package's function and method
// declarations by their types object, for callee resolution.
func funcDeclsByObject(pkg *Package) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

var _ Analyzer = (*GoroutineLife)(nil)
