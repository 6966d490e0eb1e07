package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard machine-checks the `// guarded by <mu>` annotations on
// struct fields: on every local path to an annotated field access, the
// named mutex (reached through the same base expression as the field)
// must be held — taken by Lock/RLock and not yet released, or held to
// function exit by a deferred Unlock. Methods whose name ends in
// "Locked" are the documented called-with-lock-held convention and are
// exempt on their receiver; so are accesses to values constructed
// locally (a struct not yet published needs no lock). Separately, a
// field passed to the sync/atomic functions anywhere in the package
// must never be accessed non-atomically — mixing the two turns the
// atomic into a suggestion.
//
// Goroutine bodies start with no locks held (the spawner's locks do
// not transfer); other function literals inherit the lock state at
// their definition, matching the sort.Slice-under-lock idiom.
type LockGuard struct{}

// NewLockGuard builds the analyzer.
func NewLockGuard() *LockGuard { return &LockGuard{} }

// Name implements Analyzer.
func (l *LockGuard) Name() string { return "lockguard" }

// Doc implements Analyzer.
func (l *LockGuard) Doc() string {
	return "fields annotated `// guarded by <mu>` are only accessed with that mutex held; atomically-touched fields are never accessed non-atomically"
}

// lockedSuffix marks methods documented to run with the receiver's
// mutex already held.
const lockedSuffix = "Locked"

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// Check implements Analyzer.
func (l *LockGuard) Check(pkg *Package) []Diagnostic {
	guards, diags := collectGuards(pkg)
	diags = append(diags, checkAtomicFields(pkg)...)
	if len(guards) == 0 {
		return diags
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pkg: pkg, guards: guards, funcName: funcDisplayName(fd)}
			w.recv = receiverObj(pkg, fd)
			w.lockedMethod = strings.HasSuffix(fd.Name.Name, lockedSuffix)
			w.local = locallyConstructed(pkg, fd.Body)
			w.block(fd.Body.List, newLockSet())
			diags = append(diags, w.diags...)
		}
	}
	return diags
}

// collectGuards parses the annotations: field object → mutex field
// name. Annotations naming a field that does not exist, or one that is
// not a sync.Mutex/RWMutex, are themselves findings — a guard spec
// that rotted protects nothing.
func collectGuards(pkg *Package) (map[types.Object]string, []Diagnostic) {
	guards := make(map[types.Object]string)
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			names := make(map[string]ast.Expr)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					names[name.Name] = f.Type
				}
			}
			for _, f := range st.Fields.List {
				mu := guardAnnotation(f)
				if mu == "" {
					continue
				}
				muType, exists := names[mu]
				if !exists {
					diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(f.Pos()), Rule: "lockguard",
						Message: fmt.Sprintf("guarded-by annotation names %q, which is not a field of this struct", mu)})
					continue
				}
				if !isMutexType(pkg.Info.Types[muType].Type) {
					diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(f.Pos()), Rule: "lockguard",
						Message: fmt.Sprintf("guarded-by annotation names %q, which is not a sync.Mutex or sync.RWMutex", mu)})
					continue
				}
				for _, name := range f.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						guards[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guards, diags
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment.
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// receiverObj returns the method receiver's object, or nil.
func receiverObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// locallyConstructed collects objects bound to values built in this
// function — composite literals and new() — which are unpublished and
// need no locking.
func locallyConstructed(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
		case *ast.UnaryExpr:
			if _, ok := r.X.(*ast.CompositeLit); !ok {
				return
			}
		case *ast.CallExpr:
			if fn, ok := r.Fun.(*ast.Ident); !ok || fn.Name != "new" {
				return
			}
		default:
			return
		}
		if obj := identObj(pkg, id); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					bind(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					bind(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// checkAtomicFields enforces the all-or-nothing atomic rule: collect
// every field passed by address to a sync/atomic function, then flag
// any plain access to those fields elsewhere in the package.
func checkAtomicFields(pkg *Package) []Diagnostic {
	atomicFields := make(map[types.Object]bool)
	inAtomic := make(map[*ast.SelectorExpr]bool)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isPkgIdent(pkg, sel.X, "sync/atomic") {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				fieldSel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s, ok := pkg.Info.Selections[fieldSel]; ok && s.Kind() == types.FieldVal {
					atomicFields[s.Obj()] = true
					inAtomic[fieldSel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomic[sel] {
				return true
			}
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal && atomicFields[s.Obj()] {
				diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(sel.Pos()), Rule: "lockguard",
					Message: fmt.Sprintf("field %s is updated with sync/atomic elsewhere; this plain access races with those updates", s.Obj().Name())})
			}
			return true
		})
	}
	return diags
}

// ── the lock-state walk ──

type lockSet map[string]bool

func newLockSet() lockSet { return make(lockSet) }

func (s lockSet) clone() lockSet {
	c := newLockSet()
	for k := range s {
		c[k] = true
	}
	return c
}

// intersect keeps only locks held on both paths.
func (s lockSet) intersect(o lockSet) {
	for k := range s {
		if !o[k] {
			delete(s, k)
		}
	}
}

type lockWalker struct {
	pkg          *Package
	guards       map[types.Object]string
	funcName     string
	recv         types.Object
	lockedMethod bool
	local        map[types.Object]bool
	sticky       lockSet // deferred unlocks: held to function exit
	diags        []Diagnostic
}

// block walks a statement list; true means every path terminated.
func (w *lockWalker) block(stmts []ast.Stmt, st lockSet) bool {
	for _, stmt := range stmts {
		if w.stmt(stmt, st) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(stmt ast.Stmt, st lockSet) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lockOp(w.pkg, s.X); ok {
			if op {
				st[key] = true
			} else {
				delete(st, key)
			}
			return false
		}
		w.scan(s.X, st)
	case *ast.DeferStmt:
		if key, op, ok := lockOp(w.pkg, s.Call); ok && !op {
			if w.sticky == nil {
				w.sticky = newLockSet()
			}
			w.sticky[key] = true
			return false
		}
		w.scanCallParts(s.Call, st)
	case *ast.GoStmt:
		// The spawned body starts with no locks — not even the
		// deferred-unlock set, which belongs to the spawner's frame.
		// Arguments are evaluated now, under the current set.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sub := &lockWalker{pkg: w.pkg, guards: w.guards, funcName: w.funcName, local: w.local}
			sub.block(lit.Body.List, newLockSet())
			w.diags = append(w.diags, sub.diags...)
		} else {
			w.scan(s.Call.Fun, st)
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, st)
		}
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		w.scan(stmt, st)
	case *ast.ReturnStmt:
		w.scan(stmt, st)
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.scan(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.block(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			copyInto(st, elseSt)
		case elseTerm:
			copyInto(st, thenSt)
		default:
			thenSt.intersect(elseSt)
			copyInto(st, thenSt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scan(s.Cond, st)
		}
		bodySt := st.clone()
		w.block(s.Body.List, bodySt)
		if s.Post != nil {
			w.stmt(s.Post, bodySt)
		}
		st.intersect(bodySt)
	case *ast.RangeStmt:
		w.scan(s.X, st)
		bodySt := st.clone()
		w.block(s.Body.List, bodySt)
		st.intersect(bodySt)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scan(s.Tag, st)
		}
		return w.clauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		return w.clauses(s.Body.List, st)
	case *ast.SelectStmt:
		return w.clauses(s.Body.List, st)
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	}
	return false
}

// clauses walks switch/select clauses from a shared entry state and
// intersects the fall-through outcomes.
func (w *lockWalker) clauses(list []ast.Stmt, st lockSet) bool {
	entry := st.clone()
	var outs []lockSet
	hasDefault := false
	for _, clause := range list {
		cs := entry.clone()
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.scan(e, cs)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.stmt(c.Comm, cs)
			}
			body = c.Body
		default:
			continue
		}
		if !w.block(body, cs) {
			outs = append(outs, cs)
		}
	}
	if !hasDefault {
		outs = append(outs, entry)
	}
	if len(outs) == 0 {
		return len(list) > 0
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged.intersect(o)
	}
	copyInto(st, merged)
	return false
}

func copyInto(dst, src lockSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

// scan checks every guarded-field access in node against the current
// lock set. Function literals are walked with their own state: empty
// for goroutine bodies (handled in stmt), inherited otherwise.
func (w *lockWalker) scan(node ast.Node, st lockSet) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			w.block(e.Body.List, st.clone())
			return false
		case *ast.SelectorExpr:
			w.checkAccess(e, st)
		}
		return true
	})
}

// scanCallParts scans a call's arguments and function expression,
// giving a func-literal callee an empty lock state (goroutines) —
// shared with defer, whose literal also runs later.
func (w *lockWalker) scanCallParts(call *ast.CallExpr, st lockSet) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.block(lit.Body.List, newLockSet())
	} else {
		w.scan(call.Fun, st)
	}
	for _, arg := range call.Args {
		w.scan(arg, st)
	}
}

// checkAccess flags one guarded field access without its mutex.
func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, st lockSet) {
	s, ok := w.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	mu, guarded := w.guards[s.Obj()]
	if !guarded {
		return
	}
	base := ast.Unparen(sel.X)
	var viaField bool
	baseRoot := rootObj(w.pkg, base, &viaField)
	if baseRoot != nil && w.local[baseRoot] {
		return
	}
	if w.lockedMethod && baseRoot != nil && baseRoot == w.recv {
		return
	}
	key := renderExpr(base) + "." + mu
	if st[key] || w.sticky[key] {
		return
	}
	w.diags = append(w.diags, Diagnostic{Pos: w.pkg.Fset.Position(sel.Pos()), Rule: "lockguard",
		Message: fmt.Sprintf("%s is accessed in %s without holding %s", renderExpr(sel), w.funcName, key)})
}

// lockOp recognizes mutex transitions: returns the lock key and true
// for Lock/RLock, false for Unlock/RUnlock.
func lockOp(pkg *Package, expr ast.Expr) (string, bool, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || !isMutexType(s.Recv()) {
		return "", false, false
	}
	return renderExpr(sel.X), acquire, true
}

// renderExpr prints the base-expression spelling used as a lock key:
// identifiers and field chains render naturally, anything else
// collapses.
func renderExpr(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return renderExpr(e.X)
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[i]"
	}
	return "?"
}

// rootObj walks expr down to the identifier it is built from —
// through parens, type asserts, &/* derefs, indexing, slicing, and
// struct field selection — setting *viaField when the chain crosses a
// field. Returns nil for call results, literals, and package names.
func rootObj(pkg *Package, expr ast.Expr, viaField *bool) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.TypeAssertExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND && e.Op != token.MUL {
				return nil
			}
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if s, ok := pkg.Info.Selections[e]; !ok || s.Kind() != types.FieldVal {
				return nil
			}
			*viaField = true
			expr = e.X
		case *ast.Ident:
			return identObj(pkg, e)
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to its object, def or use.
func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

var _ Analyzer = (*LockGuard)(nil)
