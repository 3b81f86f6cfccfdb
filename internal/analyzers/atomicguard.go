package analyzers

// atomicguard: a memory location is atomic or it is plain — never
// both.
//
// Three rules, one discipline:
//
//  1. A variable or field whose address is passed to a sync/atomic
//     function (atomic.AddInt64(&x, …) and friends) belongs to the
//     atomic domain: every other access must also go through
//     sync/atomic. Plain reads/writes — and taking its address for
//     anything that is not an atomic call — are findings. The atomic
//     domain is package-spanning: PackageFacts.AtomicObjs carries the
//     identities across the vetx channel.
//  2. A value of a typed-atomic type (sync/atomic's Int64, Uint64,
//     Bool, Value, …) or of an internal/obs instrument value type
//     (Counter, Gauge, Histogram) must never be copied: copying tears
//     the atomic out of its cell. Method calls, address-of, and
//     indexing are the only plain contexts allowed. Pointer-typed
//     instrument fields (*obs.Counter guarded by a mutex — the
//     repository's convention) are untouched: copying a pointer is
//     fine.
//  3. A field cannot serve two masters: a "guarded by" annotation on a
//     typed-atomic field (or one in the atomic domain) claims mutex
//     discipline over a location the code touches atomically — one of
//     the two is a lie. Reported at the field declaration.

import (
	"go/ast"
	"go/types"
	"strings"
)

// Atomicguard is the atomic-vs-plain access pass. See the file comment.
var Atomicguard = &Analyzer{
	Name: "atomicguard",
	Doc:  "check that fields accessed via sync/atomic or obs instruments are never also accessed plainly",
	Run:  runAtomicguard,
}

func runAtomicguard(pass *Pass) error {
	domain, domainIDs := collectAtomicDomain(pass)
	for id := range depAtomicIDs(pass) {
		domainIDs[id] = true
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		checkAtomicFile(pass, f, domain, domainIDs)
	}
	checkGuardConflicts(pass, domain)
	return nil
}

// atomicguardFacts exports the package's atomic-domain identities.
func atomicguardFacts(pass *Pass, out *PackageFacts) {
	_, ids := collectAtomicDomain(pass)
	for id := range ids {
		out.AtomicObjs = append(out.AtomicObjs, id)
	}
}

// collectAtomicDomain finds every object whose address reaches a
// sync/atomic function, with the stable cross-package identity of each.
func collectAtomicDomain(pass *Pass) (map[types.Object]bool, map[string]bool) {
	domain := make(map[types.Object]bool)
	ids := make(map[string]bool)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				ue, ok := arg.(*ast.UnaryExpr)
				if !ok || ue.Op.String() != "&" {
					continue
				}
				if obj := addressedObj(pass, ue.X); obj != nil {
					domain[obj] = true
					if id := atomicObjID(pass, ue.X); id != "" {
						ids[id] = true
					}
				}
			}
			return true
		})
	}
	return domain, ids
}

func depAtomicIDs(pass *Pass) map[string]bool {
	out := make(map[string]bool, len(pass.Deps.AtomicObjs))
	for _, id := range pass.Deps.AtomicObjs {
		out[id] = true
	}
	return out
}

// isAtomicFuncCall reports a call to a sync/atomic package-level
// function (not a typed-atomic method).
func isAtomicFuncCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addressedObj resolves &expr's operand to the variable it names.
func addressedObj(pass *Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.ParenExpr:
		return addressedObj(pass, e.X)
	case *ast.IndexExpr:
		return addressedObj(pass, e.X)
	}
	return nil
}

// atomicObjID renders the cross-package identity of an access path:
// "pkgpath.Type.field" for fields (via the owner's named type),
// "pkgpath.var" for package-level vars, "" for locals.
func atomicObjID(pass *Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return ""
	case *ast.SelectorExpr:
		return lockIdentity(pass, e) // same pkgpath.Type.field shape
	case *ast.ParenExpr:
		return atomicObjID(pass, e.X)
	case *ast.IndexExpr:
		return atomicObjID(pass, e.X)
	}
	return ""
}

// checkAtomicFile walks one file for rule-1 plain accesses and rule-2
// value copies.
func checkAtomicFile(pass *Pass, f *ast.File, domain map[types.Object]bool, domainIDs map[string]bool) {
	walkStack(f, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			// The Sel of a selector is handled through its SelectorExpr.
			if len(stack) > 0 {
				if p, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && p.Sel == n {
					return true
				}
			}
			obj := pass.TypesInfo.Uses[n]
			if obj == nil {
				return true
			}
			inDomain := domain[obj]
			if !inDomain && len(domainIDs) > 0 {
				// Selector tails are handled via their SelectorExpr below;
				// here only plain idents (package vars, locals) resolve.
				if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					inDomain = domainIDs[v.Pkg().Path()+"."+v.Name()]
				}
			}
			if inDomain && !inAtomicContext(pass, n, stack) {
				pass.Reportf(n.Pos(), "%s is in the atomic domain (its address is passed to sync/atomic) and must not be accessed plainly", n.Name)
			}
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[n.Sel]
			if obj == nil {
				return true
			}
			inDomain := domain[obj]
			if !inDomain && len(domainIDs) > 0 {
				if id := atomicObjID(pass, n); id != "" {
					inDomain = domainIDs[id]
				}
			}
			if inDomain && !inAtomicContext(pass, n, stack) {
				pass.Reportf(n.Sel.Pos(), "%s is in the atomic domain (its address is passed to sync/atomic) and must not be accessed plainly", exprString(n))
			}
		}
		// Rule 2: whole-value use of a typed-atomic value.
		if e, ok := n.(ast.Expr); ok {
			checkAtomicCopy(pass, e, stack)
		}
		return true
	})
}

// inAtomicContext reports whether the access node sits inside
// &x passed directly to a sync/atomic function call.
func inAtomicContext(pass *Pass, n ast.Node, stack []ast.Node) bool {
	// Find the nearest enclosing &-operand position.
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.UnaryExpr:
			if p.Op.String() != "&" {
				continue
			}
			// The & must itself be an argument of an atomic call.
			if i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && isAtomicFuncCall(pass, call) {
					return true
				}
			}
			return false
		case *ast.SelectorExpr, *ast.ParenExpr, *ast.IndexExpr:
			continue
		default:
			return false
		}
	}
	return false
}

// checkAtomicCopy flags whole-value uses of typed-atomic values (rule
// 2). The allowed parents are method access, address-of, and indexing
// deeper into a container of atomics.
func checkAtomicCopy(pass *Pass, e ast.Expr, stack []ast.Node) {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return
	}
	if len(stack) > 0 {
		if p, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok {
			if id, isID := e.(*ast.Ident); isID && p.Sel == id {
				return // the Sel half of a selector; the whole Sel expr is checked
			}
		}
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || !tv.IsValue() || !isTypedAtomic(tv.Type) {
		return
	}
	if len(stack) == 0 {
		return
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		if p.X == e {
			return // x.atomicField.<next sel> or method access: fine
		}
	case *ast.UnaryExpr:
		if p.Op.String() == "&" {
			return
		}
	case *ast.IndexExpr:
		if p.X == e {
			return
		}
	case *ast.StarExpr:
		return // dereference feeding a further selector; the selector case re-checks
	}
	// Inside a field declaration or composite type the ident is a type
	// name, not a value — Types.IsValue filtered those already.
	pass.Reportf(e.Pos(), "%s has atomic type %s and must not be copied or read as a plain value", exprString(e), tv.Type.String())
}

// isTypedAtomic reports sync/atomic named types and internal/obs
// instrument value types.
func isTypedAtomic(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync/atomic":
		return obj.Name() != "ByteOrder"
	}
	if strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		switch obj.Name() {
		case "Counter", "Gauge", "Histogram":
			return true
		}
	}
	return false
}

// checkGuardConflicts reports rule 3: "guarded by" annotations, as
// lockguard parses them, on atomic-domain or typed-atomic fields.
func checkGuardConflicts(pass *Pass, domain map[types.Object]bool) {
	for obj := range collectGuards(pass) {
		if pass.InTestFile(obj.Pos()) {
			continue
		}
		if domain[obj] || isTypedAtomic(obj.Type()) {
			pass.Reportf(obj.Pos(), "field %s is both 'guarded by' a mutex and accessed atomically — pick one discipline", obj.Name())
		}
	}
}
