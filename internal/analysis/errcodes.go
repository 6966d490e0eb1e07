package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ErrCodesConfig tunes the stable-error-code analyzer.
type ErrCodesConfig struct {
	// Packages are the import paths whose error-code expressions are
	// checked (the transport layer).
	Packages []string
	// ProtoPath is the package declaring the closed code set.
	ProtoPath string
	// CodePrefix is the constant-name prefix of the code set ("Code").
	CodePrefix string
	// CodedFunc is the in-package helper pairing an error with its code;
	// its first argument is checked.
	CodedFunc string
	// ErrorStruct and CodeField name the response struct in ProtoPath
	// whose code field is checked in composite literals.
	ErrorStruct string
	CodeField   string
}

// ErrCodes keeps the protocol's error-code set closed: every constant
// code expression that reaches a protocol error response must be one of
// the declared proto.Code* constants, so the README's error-code table
// and the clients' retry logic stay exhaustive by construction. Code
// values that flow through variables are accepted — their assignments
// are themselves built from checked expressions.
type ErrCodes struct {
	cfg  ErrCodesConfig
	pkgs map[string]bool
}

// NewErrCodes builds the analyzer.
func NewErrCodes(cfg ErrCodesConfig) *ErrCodes {
	pkgs := make(map[string]bool, len(cfg.Packages))
	for _, p := range cfg.Packages {
		pkgs[p] = true
	}
	return &ErrCodes{cfg: cfg, pkgs: pkgs}
}

// Name implements Analyzer.
func (e *ErrCodes) Name() string { return "errcodes" }

// Check implements Analyzer.
func (e *ErrCodes) Check(pkg *Package) []Diagnostic {
	if !e.pkgs[pkg.Path] {
		return nil
	}
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if e.isCodedCall(pkg, node) && len(node.Args) > 0 {
					diags = append(diags, e.checkCodeExpr(pkg, node.Args[0],
						fmt.Sprintf("argument 1 of %s", e.cfg.CodedFunc))...)
				}
			case *ast.CompositeLit:
				if e.isErrorStruct(pkg, node) {
					if v := compositeField(node, e.cfg.CodeField); v != nil {
						diags = append(diags, e.checkCodeExpr(pkg, v,
							fmt.Sprintf("%s.%s field", e.cfg.ErrorStruct, e.cfg.CodeField))...)
					}
				}
			}
			return true
		})
	}
	return diags
}

// isCodedCall reports whether call invokes the package-local coded
// helper.
func (e *ErrCodes) isCodedCall(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != e.cfg.CodedFunc {
		return false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path
}

// isErrorStruct reports whether lit is a composite literal of the proto
// error-response struct.
func (e *ErrCodes) isErrorStruct(pkg *Package, lit *ast.CompositeLit) bool {
	t := pkg.Info.Types[lit].Type
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == e.cfg.ErrorStruct && obj.Pkg() != nil && obj.Pkg().Path() == e.cfg.ProtoPath
}

// compositeField returns the value of the named field in a keyed
// composite literal (positional literals of the response struct do not
// occur; the struct has many fields).
func compositeField(lit *ast.CompositeLit, name string) ast.Expr {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == name {
			return kv.Value
		}
	}
	return nil
}

// checkCodeExpr accepts a declared proto.Code* constant or a
// non-constant expression; any other constant — an inline string
// literal, a locally declared code — is a violation.
func (e *ErrCodes) checkCodeExpr(pkg *Package, expr ast.Expr, where string) []Diagnostic {
	if e.isDeclaredCode(pkg, expr) {
		return nil
	}
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Value == nil {
		return nil // flows through a variable; its sources are checked at their own sites
	}
	return []Diagnostic{{
		Pos:  pkg.Fset.Position(expr.Pos()),
		Rule: e.Name(),
		Message: fmt.Sprintf("%s must be a declared %s.%s* constant, not inline constant %s",
			where, pathBase(e.cfg.ProtoPath), e.cfg.CodePrefix, tv.Value.String()),
	}}
}

// isDeclaredCode reports whether expr resolves to a constant named
// CodePrefix* declared in ProtoPath.
func (e *ErrCodes) isDeclaredCode(pkg *Package, expr ast.Expr) bool {
	var id *ast.Ident
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return false
	}
	c, ok := pkg.Info.Uses[id].(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == e.cfg.ProtoPath &&
		strings.HasPrefix(c.Name(), e.cfg.CodePrefix)
}

// pathBase is the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

var _ Analyzer = (*ErrCodes)(nil)
