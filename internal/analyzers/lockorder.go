package analyzers

// lockorder: the global mutex-acquisition order must be acyclic.
//
// Every sync.Mutex/RWMutex acquisition site contributes edges to a
// package-spanning order graph: taking lock B while (may-)holding lock
// A adds the edge A → B. Holding is tracked flow-sensitively over the
// CFG by heldLockFlow, the driver lockguard shares (may-analysis, union
// at joins: an edge on any path counts), and interprocedurally through
// per-function acquire summaries — calling a function known to take B
// while holding A also adds A → B, across package boundaries via the
// vetx fact channel (PackageFacts.LockEdges and .LockAcquires).
//
// Lock identity is structural and global: a mutex field is named
// "pkgpath.Type.field" (resolved through the receiver expression's
// type), a package-level mutex "pkgpath.var". Function-local mutexes
// have no global order and are ignored. A deferred Unlock keeps the
// lock held to function exit.
//
// A cycle in the merged graph is a potential deadlock; the pass
// reports every local edge participating in one, rendering the cycle
// path. The expected shape for this repository (DESIGN.md §10):
// service.Server.mu precedes job.mu and store.Store.mu, never the
// reverse.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockorder is the lock-ordering pass. See the file comment.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "build the global mutex-acquisition order graph and fail on cycles or inconsistent orderings",
	Run:  runLockorder,
}

// lockEdgeLocal is one order edge observed in this package.
type lockEdgeLocal struct {
	from, to string
	pos      token.Pos
}

func runLockorder(pass *Pass) error {
	edges, _ := lockorderScan(pass)

	// Merged adjacency: local edges plus everything the dependencies
	// exported.
	adj := make(map[string]map[string]string) // from → to → pos string
	addEdge := func(from, to, pos string) {
		if adj[from] == nil {
			adj[from] = make(map[string]string)
		}
		if _, ok := adj[from][to]; !ok {
			adj[from][to] = pos
		}
	}
	for _, e := range pass.Deps.LockEdges {
		addEdge(e.From, e.To, e.Pos)
	}
	for _, e := range edges {
		addEdge(e.from, e.to, pass.Fset.Position(e.pos).String())
	}

	// A local edge F→T is part of a cycle iff F is reachable from T.
	reported := make(map[string]bool)
	for _, e := range edges {
		if e.from == e.to {
			pass.Reportf(e.pos, "lock order cycle: %s acquired while already held", e.from)
			continue
		}
		path := lockPath(adj, e.to, e.from)
		if path == nil {
			continue
		}
		key := e.from + "→" + e.to
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(e.pos, "lock order cycle: %s taken while holding %s, but elsewhere %s", e.to, e.from, strings.Join(path, ", then "))
	}
	return nil
}

// lockorderFacts contributes this package's edges and per-function
// acquire summaries to the exported facts.
func lockorderFacts(pass *Pass, out *PackageFacts) {
	edges, summaries := lockorderScan(pass)
	for _, e := range edges {
		out.LockEdges = append(out.LockEdges, LockEdge{
			From: e.from, To: e.to, Pos: pass.Fset.Position(e.pos).String(),
		})
	}
	for fn, locks := range summaries {
		if len(locks) == 0 {
			continue
		}
		if out.LockAcquires == nil {
			out.LockAcquires = make(map[string][]string)
		}
		out.LockAcquires[fn] = mergeStrings(out.LockAcquires[fn], locks)
	}
}

// lockPath returns the lock names along a path from → … → to in adj
// (rendered with acquisition positions), or nil if unreachable.
func lockPath(adj map[string]map[string]string, from, to string) []string {
	type hop struct {
		lock string
		prev *hop
		via  string // pos of the edge that reached this lock
	}
	seen := map[string]bool{from: true}
	queue := []*hop{{lock: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.lock == to {
			var parts []string
			for ; h != nil; h = h.prev {
				if h.via == "" {
					parts = append(parts, h.lock)
				} else {
					parts = append(parts, fmt.Sprintf("%s (at %s)", h.lock, h.via))
				}
			}
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return parts
		}
		for next, pos := range adj[h.lock] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, &hop{lock: next, prev: h, via: pos})
			}
		}
	}
	return nil
}

// lockorderScan runs the may-hold analysis over every function context
// of the package, returning the observed order edges and the
// per-function transitive acquire summaries (keyed by FullName).
func lockorderScan(pass *Pass) ([]lockEdgeLocal, map[string][]string) {
	// Round 1: direct acquisitions per function, and the same-package
	// call graph.
	type fnInfo struct {
		fn      *types.Func
		body    *ast.BlockStmt
		direct  map[string]bool
		callees map[*types.Func]bool
	}
	var fns []*fnInfo
	byFunc := make(map[*types.Func]*fnInfo)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{fn: fn, body: fd.Body, direct: map[string]bool{}, callees: map[*types.Func]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if acq := lockAcquire(pass, call); acq != "" {
					fi.direct[acq] = true
				}
				if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() == pass.Pkg {
					fi.callees[callee] = true
				}
				return true
			})
			fns = append(fns, fi)
			byFunc[fn] = fi
		}
	}

	// Fixpoint: transitive acquire summaries, seeded with dependency
	// facts for cross-package callees.
	summaries := make(map[string][]string, len(fns))
	acquire := func(fn *types.Func) []string {
		if fi := byFunc[fn]; fi != nil {
			return summaries[fn.FullName()]
		}
		return pass.Deps.LockAcquires[fn.FullName()]
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			set := map[string]bool{}
			for l := range fi.direct {
				set[l] = true
			}
			for callee := range fi.callees {
				for _, l := range acquire(callee) {
					set[l] = true
				}
			}
			var list []string
			for l := range set {
				list = append(list, l)
			}
			list = mergeStrings(nil, list)
			key := fi.fn.FullName()
			if len(list) != len(summaries[key]) {
				summaries[key] = list
				changed = true
			}
		}
	}

	// Round 2: flow-sensitive may-hold per context; every acquisition
	// while holding, direct or through a callee's summary, is an edge.
	var edges []lockEdgeLocal
	seen := make(map[string]bool)
	emit := func(from, to string, pos token.Pos) {
		key := fmt.Sprintf("%s→%s@%d", from, to, pos)
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, lockEdgeLocal{from: from, to: to, pos: pos})
	}
	globalKey := func(e ast.Expr) string { return lockIdentity(pass, e) }
	record := func(n ast.Node, held set[string]) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var taken []string
		if l := lockAcquire(pass, call); l != "" {
			taken = []string{l}
		} else if callee := calleeFunc(pass, call); callee != nil {
			taken = acquire(callee)
		}
		for _, l := range taken {
			for h := range held {
				// h == l yields a self-edge: a double acquire.
				emit(h, l, call.Pos())
			}
		}
	}
	for _, fi := range fns {
		heldLockFlow(pass, fi.body, globalKey, set[string].union, record)
		ast.Inspect(fi.body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				heldLockFlow(pass, fl.Body, globalKey, set[string].union, record)
				return false
			}
			return true
		})
	}
	return edges, summaries
}

// heldLockFlow is the held-lock driver of both lock passes. Over one
// function context it runs a Forward flow of the held mutexes, each
// named by key applied to the lock call's receiver ("" leaves it
// untracked) and merged at joins by join: union for lockorder's
// may-hold, intersect for lockguard's must-hold. It then replays every
// reachable block once from its converged state, handing visit each
// node the block evaluates together with the locks held just before it
// (a Lock call sees the state before its own acquisition). A deferred
// Unlock holds its lock to function exit. Function literals are fresh
// contexts: the flow never enters one.
func heldLockFlow(pass *Pass, body *ast.BlockStmt, key func(ast.Expr) string, join func(dst, src set[string]) bool, visit func(n ast.Node, held set[string])) {
	cfg := NewCFG(body, pass.TypesInfo)
	step := func(b *Block, held set[string], replay bool) set[string] {
		for _, st := range b.Stmts {
			for _, root := range BlockLocalNodes(st) {
				ast.Inspect(root, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok || n == nil {
						return false
					}
					if replay {
						visit(n, held)
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if recv, acquires := mutexCall(pass, call); recv != nil {
						switch l := key(recv); {
						case l == "":
						case acquires:
							held.add(l)
						case !deferredCall(st, call):
							delete(held, l)
						}
					}
					return true
				})
			}
		}
		return held
	}
	in := Forward(cfg, Flow[set[string]]{
		Entry:    set[string]{},
		Clone:    set[string].clone,
		Merge:    join,
		Transfer: func(b *Block, held set[string]) set[string] { return step(b, held, false) },
	})
	for _, b := range cfg.Blocks {
		if in[b.Index] != nil { // nil: unreachable
			step(b, in[b.Index].clone(), true)
		}
	}
}

// deferredCall reports whether call is the direct call of a defer
// statement (a deferred Unlock holds the lock to exit).
func deferredCall(st ast.Stmt, call *ast.CallExpr) bool {
	d, ok := st.(*ast.DeferStmt)
	return ok && d.Call == call
}

// mutexCall recognizes a call of a sync.Mutex or sync.RWMutex lock
// method: it returns the receiver expression and whether the call
// acquires (Lock, RLock) or releases (Unlock, RUnlock). recv is nil for
// every other call.
func mutexCall(pass *Pass, call *ast.CallExpr) (recv ast.Expr, acquires bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquires = true
	case "Unlock", "RUnlock":
	default:
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil || !isNamedType(r.Type(), "sync", "Mutex") && !isNamedType(r.Type(), "sync", "RWMutex") {
		return nil, false
	}
	return sel.X, acquires
}

// lockAcquire returns the global identity of the mutex a Lock/RLock call
// takes, or "" for any other call or a function-local mutex.
func lockAcquire(pass *Pass, call *ast.CallExpr) string {
	if recv, acquires := mutexCall(pass, call); acquires {
		return lockIdentity(pass, recv)
	}
	return ""
}

// lockIdentity names the mutex behind an access path: a field as
// "pkgpath.Type.field" via the owner expression's type, a package-level
// var as "pkgpath.var", a local as "" (no global order).
func lockIdentity(pass *Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		return "" // local mutex
	case *ast.SelectorExpr:
		// x.mu — resolve the owner x's named type.
		tv, ok := pass.TypesInfo.Types[e.X]
		if !ok {
			// Package-qualified var: pkg.Mu.
			if id, ok2 := e.X.(*ast.Ident); ok2 {
				if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					if obj := pass.TypesInfo.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
						return obj.Pkg().Path() + "." + obj.Name()
					}
				}
			}
			return ""
		}
		t := tv.Type
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.ParenExpr:
		return lockIdentity(pass, e.X)
	}
	return ""
}

// calleeFunc resolves a call's static callee, or nil (builtins,
// interface methods, function values).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	if id == nil {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
