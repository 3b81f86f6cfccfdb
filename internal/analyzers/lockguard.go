package analyzers

// lockguard: structural mutex discipline for annotated struct fields.
//
// A struct field whose doc or trailing comment says
//
//	// guarded by mu        (lock lives on the same struct; the access
//	                         path picks the receiver: x.field needs x.mu)
//	// guarded by s.mu      (lock lives on a named outer struct — the
//	                         serverObs instruments are mutated under the
//	                         Server's s.mu; the spelling is literal)
//
// may only be read or written where the named mutex is held on every
// path from function entry to the access: a preceding sync.Mutex or
// RWMutex `<lock>.Lock()` or `<lock>.RLock()`, not yet released by a
// plain `<lock>.Unlock()` (a deferred unlock holds to function end).
// Locks are named by their receiver path. The held set is a must-hold
// flow over the function's CFG — heldLockFlow, the driver lockorder
// runs as a may-hold flow, here joined by intersect — and one replay
// of the converged block states checks every guarded selector. A path
// that returns, panics or exits never reaches the join, and a break
// carries its own state to the code after the loop.
//
// Three structural exemptions keep the check aligned with the
// repository's conventions rather than fighting them:
//
//   - functions whose name ends in "Locked" (the caller-holds-the-lock
//     naming convention, e.g. job.finishLocked);
//   - functions whose doc comment says the caller must hold the lock
//     ("must be held", "caller holds", "while holding");
//   - values constructed in this function (`x := &T{...}`): until the
//     constructor publishes them no other goroutine can see them.
//
// Function literals are independent contexts with no inherited lock
// state — a sample-at-scrape gauge closure must take the lock itself,
// exactly as internal/service's registerDerived ones do. Test files are
// exempt. The check is structural, not alias-aware: it proves the
// convention, and the race detector hammers what it cannot see.

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Lockguard is the mutex-discipline pass. See the file comment for the
// contract.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "check that fields annotated 'guarded by <mu>' are only accessed while the named mutex is structurally held",
	Run:  runLockguard,
}

var (
	guardedByRe   = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)
	callerHoldsRe = regexp.MustCompile(`(?i)must be held|caller holds|caller must hold|held by the caller|while holding`)
)

func runLockguard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !exemptFunc(fd) {
				checkGuarded(pass, guards, fd, fd.Body)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkGuarded(pass, guards, fd, fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

// collectGuards maps each annotated field's object to its guard spec.
func collectGuards(pass *Pass) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				spec := ""
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
						spec = m[1]
					}
				}
				if spec == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = spec
					}
				}
			}
			return true
		})
	}
	return out
}

// exemptFunc applies the caller-holds conventions.
func exemptFunc(fd *ast.FuncDecl) bool {
	return strings.HasSuffix(fd.Name.Name, "Locked") ||
		fd.Doc != nil && callerHoldsRe.MatchString(fd.Doc.Text())
}

// checkGuarded runs the must-hold flow over one function context (fd's
// body or one of its literals) and reports every guarded-field access
// the replay reaches without the named lock held.
func checkGuarded(pass *Pass, guards map[types.Object]string, fd *ast.FuncDecl, body *ast.BlockStmt) {
	constructed := constructedLocals(body)
	heldLockFlow(pass, body, exprString, set[string].intersect, func(n ast.Node, held set[string]) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		spec, guarded := guards[pass.TypesInfo.Uses[sel.Sel]]
		if !guarded {
			return
		}
		need := spec
		if !strings.Contains(spec, ".") {
			need = exprString(sel.X) + "." + spec
		}
		if held.has(need) || constructed[rootIdent(sel.X)] {
			return
		}
		pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s, which %s does not hold on this path", exprString(sel.X), sel.Sel.Name, need, fd.Name.Name)
	})
}

// constructedLocals collects the context's `x := &T{...}` / `x := T{...}`
// / `x := new(T)` locals: unpublished values need no lock. Nested
// function literals are other contexts and are not searched.
func constructedLocals(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				id, ok := n.Lhs[i].(*ast.Ident)
				if ok && isConstruction(rhs) {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// isConstruction reports a composite literal, its address, or new(T).
func isConstruction(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, isLit := e.X.(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		fid, ok := e.Fun.(*ast.Ident)
		return ok && fid.Name == "new"
	}
	return false
}

// rootIdent returns the leftmost identifier of an access path, or "".
func rootIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return ""
		}
	}
}
