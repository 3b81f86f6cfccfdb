package analyzers

// leakcheck: goroutines spawned in library code must be joined,
// context-bounded, or explicitly annotated detached.
//
// A `go` statement in a non-main, non-test package is accepted when
// one of four disciplines provably bounds the goroutine's lifetime:
//
//  1. Annotation: `//distcolor:detached <reason>` on the go statement's
//     line or the line above. The reason is mandatory — a bare
//     annotation is itself a finding. Unlike //distcolor:ignore this is
//     a declaration, not a waiver: it states the goroutine is meant to
//     outlive the spawner and names the mechanism that still bounds it.
//  2. Context-bounded: the goroutine body (a func literal, or the body
//     of a same-package function it calls) references a
//     context.Context value, or one is passed in its arguments — the
//     repository's ctx-first convention makes that the cancel signal.
//  3. WaitGroup-accounted: the body calls Done() on a sync.WaitGroup.
//     If the group is a struct field, some non-test code in the package
//     must call Wait() on the same field (the service.Server s.wg
//     shape: workers join in Close). If it is a local variable, every
//     CFG path from the spawn to function exit must pass a block that
//     calls Wait() on it, or a deferred Wait must exist (the
//     per-round fan-out/fan-in shape of sim's parallel engine).
//  4. Channel-joined: the body sends on or closes a channel and every
//     path from the spawn to exit receives from that channel.
//
// Anything else leaks on some path and is reported. The check is per
// function context: func literals are independent contexts, exactly as
// in the structural passes.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Leakcheck is the goroutine-lifetime pass. See the file comment.
var Leakcheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "check that goroutines in library code are joined, ctx-bounded, or annotated //distcolor:detached",
	Run:  runLeakcheck,
}

const detachedDirective = "//distcolor:detached"

func runLeakcheck(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	fieldWaits := collectFieldWaits(pass)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		detached := collectDetached(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLeakContext(pass, fd.Body, detached, fieldWaits)
		}
	}
	return nil
}

// detachedNote is one parsed //distcolor:detached comment.
type detachedNote struct {
	line      int
	hasReason bool
	used      bool
	pos       token.Pos
}

func collectDetached(pass *Pass, f *ast.File) []*detachedNote {
	var out []*detachedNote
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, detachedDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, detachedDirective))
			out = append(out, &detachedNote{
				line:      pass.Fset.Position(c.Pos()).Line,
				hasReason: rest != "",
				pos:       c.Pos(),
			})
		}
	}
	return out
}

// collectFieldWaits gathers the field objects on which some non-test
// code of the package calls Wait() — the join side of field-held
// WaitGroups.
func collectFieldWaits(pass *Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Wait" {
				return true
			}
			if obj := waitGroupObj(pass, sel.X); obj != nil {
				out[obj] = true
			}
			return true
		})
	}
	return out
}

// waitGroupObj resolves an access path to the variable it names, if
// that variable is a sync.WaitGroup (or pointer to one).
func waitGroupObj(pass *Pass, e ast.Expr) types.Object {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	case *ast.ParenExpr:
		return waitGroupObj(pass, e.X)
	}
	if obj == nil || !isWaitGroup(obj.Type()) {
		return nil
	}
	return obj
}

func isWaitGroup(t types.Type) bool {
	return isNamedType(t, "sync", "WaitGroup")
}

// isNamedType reports whether t (possibly behind pointers) is the
// named type pkgpath.name.
func isNamedType(t types.Type, pkgpath, name string) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgpath && obj.Name() == name
}

// checkLeakContext analyzes one function body; nested literals recurse
// as fresh contexts.
func checkLeakContext(pass *Pass, body *ast.BlockStmt, detached []*detachedNote, fieldWaits map[types.Object]bool) {
	cfg := NewCFG(body, pass.TypesInfo)
	for _, blk := range cfg.Blocks {
		for _, st := range blk.Stmts {
			gs, ok := st.(*ast.GoStmt)
			if !ok {
				continue
			}
			checkSpawn(pass, cfg, blk, gs, detached, fieldWaits)
		}
	}
	// Literal bodies (including the spawned ones) are their own contexts.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkLeakContext(pass, fl.Body, detached, fieldWaits)
			return false
		}
		return true
	})
}

func checkSpawn(pass *Pass, cfg *CFG, blk *Block, gs *ast.GoStmt, detached []*detachedNote, fieldWaits map[types.Object]bool) {
	line := pass.Fset.Position(gs.Pos()).Line
	for _, d := range detached {
		if d.line == line || d.line == line-1 {
			d.used = true
			if !d.hasReason {
				pass.Reportf(gs.Pos(), "//distcolor:detached requires a reason explaining what bounds this goroutine")
			}
			return
		}
	}

	body, args := spawnBody(pass, gs)
	if ctxBounded(pass, body, args) {
		return
	}
	if wg := doneWaitGroup(pass, body); wg != nil {
		if _, isField := fieldOwner(wg); isField {
			if fieldWaits[wg] {
				return
			}
			pass.Reportf(gs.Pos(), "goroutine accounts to WaitGroup field %s but no non-test code in this package calls %s.Wait()", wg.Name(), wg.Name())
			return
		}
		if localWaitJoins(pass, cfg, blk, wg) {
			return
		}
		pass.Reportf(gs.Pos(), "goroutine accounts to %s but some path from this spawn returns without %s.Wait()", wg.Name(), wg.Name())
		return
	}
	if channelJoins(pass, cfg, blk, body) {
		return
	}
	pass.Reportf(gs.Pos(), "goroutine is not joined, ctx-bounded, or annotated //distcolor:detached")
}

// spawnBody resolves the goroutine's executable body: a func literal's
// block, or the body of a same-package function/method being called.
// Returns nil when the callee is opaque (other package, interface).
func spawnBody(pass *Pass, gs *ast.GoStmt) (*ast.BlockStmt, []ast.Expr) {
	args := gs.Call.Args
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body, args
	default:
		var id *ast.Ident
		switch f := fun.(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		}
		if id == nil {
			return nil, args
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() != pass.Pkg {
			return nil, args
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if pass.TypesInfo.Defs[fd.Name] == fn {
						return fd.Body, args
					}
				}
			}
		}
		return nil, args
	}
}

// ctxBounded reports whether the goroutine sees a context.Context: one
// of its arguments is a context, or its body references a
// context-typed value.
func ctxBounded(pass *Pass, body *ast.BlockStmt, args []ast.Expr) bool {
	isCtx := func(e ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[e]
		return ok && isNamedType(tv.Type, "context", "Context")
	}
	for _, a := range args {
		if isCtx(a) {
			return true
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && isNamedType(obj.Type(), "context", "Context") {
				found = true
			}
		}
		return !found
	})
	return found
}

// doneWaitGroup returns the WaitGroup variable the goroutine body calls
// Done() on, or nil.
func doneWaitGroup(pass *Pass, body *ast.BlockStmt) types.Object {
	if body == nil {
		return nil
	}
	var wg types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if wg != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if obj := waitGroupObj(pass, sel.X); obj != nil {
			wg = obj
		}
		return true
	})
	return wg
}

// fieldOwner reports whether obj is a struct field.
func fieldOwner(obj types.Object) (types.Object, bool) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return obj, true
	}
	return nil, false
}

// localWaitJoins reports whether every CFG path from the spawn block to
// Exit passes a Wait() on wg — either a block containing the call, or a
// deferred Wait (which covers all exits).
func localWaitJoins(pass *Pass, cfg *CFG, spawn *Block, wg types.Object) bool {
	for _, d := range cfg.Defers {
		if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			if waitGroupObj(pass, sel.X) == wg {
				return true
			}
		}
	}
	waits := func(b *Block) bool {
		for _, st := range b.Stmts {
			if stmtCallsOn(pass, st, wg, "Wait") {
				return true
			}
		}
		return false
	}
	if waits(spawn) {
		// The Wait sits in the spawn's own block, after the go statement.
		return true
	}
	return !cfg.CanReachExitAvoiding(spawn, waits)
}

// stmtCallsOn reports whether st contains a call obj.method() (not
// descending into nested func literals).
func stmtCallsOn(pass *Pass, st ast.Stmt, obj types.Object, method string) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		var got types.Object
		switch x := sel.X.(type) {
		case *ast.Ident:
			got = pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			got = pass.TypesInfo.Uses[x.Sel]
		}
		if got == obj {
			found = true
		}
		return true
	})
	return found
}

// channelJoins reports whether the goroutine produces on some channel
// that every path from the spawn to exit consumes from.
func channelJoins(pass *Pass, cfg *CFG, spawn *Block, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	// Channels the goroutine sends on or closes.
	produced := make(map[types.Object]bool)
	note := func(e ast.Expr) {
		var obj types.Object
		switch e := e.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[e.Sel]
		}
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Chan); ok {
			produced[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			note(n.Chan)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				note(n.Args[0])
			}
		}
		return true
	})
	if len(produced) == 0 {
		return false
	}
	receives := func(ch types.Object) func(*Block) bool {
		return func(b *Block) bool {
			for _, st := range b.Stmts {
				if stmtReceivesFrom(pass, st, ch) {
					return true
				}
			}
			return false
		}
	}
	for ch := range produced {
		recv := receives(ch)
		if recv(spawn) || !cfg.CanReachExitAvoiding(spawn, recv) {
			return true
		}
	}
	return false
}

// stmtReceivesFrom reports whether st receives from or ranges over the
// channel object (not descending into nested func literals).
func stmtReceivesFrom(pass *Pass, st ast.Stmt, ch types.Object) bool {
	chanOf := func(e ast.Expr) types.Object {
		switch e := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			return pass.TypesInfo.Uses[e.Sel]
		}
		return nil
	}
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chanOf(n.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if chanOf(n.X) == ch {
				found = true
			}
		}
		return true
	})
	return found
}
