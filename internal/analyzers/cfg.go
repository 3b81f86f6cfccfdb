package analyzers

// A per-function control-flow graph over go/ast, for the flow-sensitive
// passes (lockguard, leakcheck, lockorder, decodebounds). Statements
// are grouped into basic blocks; a control statement
// (if/for/range/switch/select) sits as the LAST entry of the block that
// evaluates its condition, so an analysis can read the condition from
// Stmts[len-1] and interpret the successor edges.
//
// Shapes handled: if/else chains, for (all three clauses), range,
// (type)switch with fallthrough, select, labeled break/continue, and
// early exits. A return statement, a call to panic, and the
// never-return sinks (os.Exit, runtime.Goexit, log.Fatal*) edge to the
// synthetic Exit block; defer bodies conceptually run on every such
// edge, so the builder records the function's defers on the CFG rather
// than splicing them into the block graph (the flow passes treat a
// deferred join/unlock as covering all paths to Exit). goto is not
// modeled (the repository has none); a goto conservatively edges to
// Exit so no analysis silently claims paths it cannot see.
//
// Function literals are NOT inlined: a FuncLit body is an independent
// context with its own CFG, exactly as the structural passes treat it.
// The builder never descends into one.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Block is a maximal straight-line statement sequence: every
// statement in Stmts executes whenever the block is entered, in order.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
	Preds []*Block
}

// A CFG is one function body's control-flow graph.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the synthetic sink every return/panic/fallthrough-off-the-
	// end edges to. It holds no statements.
	Exit *Block
	// Defers are every defer statement of the body (any block): their
	// calls run on all paths to Exit that executed the defer. The flow
	// passes use them for "covers every exit" reasoning.
	Defers []*ast.DeferStmt
}

// NewCFG builds the graph for one function body. info may be nil; it is
// used only to recognize the panic builtin and never-return sinks.
func NewCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{info: info}
	b.cfg = &CFG{}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.cfg.Exit) // fall off the end: implicit return
	return b.cfg
}

type loopTargets struct {
	label         string
	brk, cont     *Block
	isLoop        bool // continue only targets loops
	caseFollowing *Block
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block
	info  *types.Info
	loops []loopTargets
	// pendingLabel carries a label across the LabeledStmt → loop hand-off.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		if bs, ok := s.(*ast.BranchStmt); ok && bs.Tok == token.FALLTHROUGH {
			// Resolved by the switch builder: edge to the next case body.
			for j := len(b.loops) - 1; j >= 0; j-- {
				if b.loops[j].caseFollowing != nil {
					b.edge(b.cur, b.loops[j].caseFollowing)
					break
				}
			}
			b.cur = b.newBlock() // anything after fallthrough is unreachable
			continue
		}
		if next := b.stmt(s); next != nil {
			b.cur = next
		}
	}
}

// stmt lowers one statement into the graph. It returns the block
// subsequent statements should continue in, or nil to keep the current
// one.
func (b *cfgBuilder) stmt(s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.edge(b.cur, b.cfg.Exit)
		return b.newBlock() // unreachable continuation

	case *ast.DeferStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.cfg.Defers = append(b.cfg.Defers, s)
		return nil

	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if b.neverReturns(s.X) {
			b.edge(b.cur, b.cfg.Exit)
			return b.newBlock()
		}
		return nil

	case *ast.BlockStmt:
		b.stmts(s.List)
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, s) // condition evaluates here
		cond := b.cur
		then := b.newBlock()
		join := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmts(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			if next := b.stmt(s.Else); next != nil {
				b.cur = next
			}
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock()
		head.Stmts = append(head.Stmts, s) // condition evaluates here
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Stmts = append(post.Stmts, s.Post)
			b.edge(post, head)
		}
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after) // for {} only leaves via break
		}
		b.pushLoop(loopTargets{label: b.pendingLabel, brk: after, cont: post, isLoop: true})
		b.pendingLabel = ""
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, post)
		b.popLoop()
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		head.Stmts = append(head.Stmts, s) // range expr + per-iter assignment
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(loopTargets{label: b.pendingLabel, brk: after, cont: head, isLoop: true})
		b.pendingLabel = ""
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return b.switchLike(s)

	case *ast.SelectStmt:
		sel := b.cur
		sel.Stmts = append(sel.Stmts, s)
		join := b.newBlock()
		b.pushLoop(loopTargets{label: b.pendingLabel, brk: join})
		b.pendingLabel = ""
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			cb := b.newBlock()
			if cc.Comm != nil {
				cb.Stmts = append(cb.Stmts, cc.Comm)
			}
			b.edge(sel, cb)
			b.cur = cb
			b.stmts(cc.Body)
			b.edge(b.cur, join)
		}
		b.popLoop()
		if len(s.Body.List) == 0 {
			b.edge(sel, join)
		}
		return join

	case *ast.LabeledStmt:
		// The label names the immediately following loop/switch/select for
		// its break/continue targets.
		b.pendingLabel = s.Label.Name
		next := b.stmt(s.Stmt)
		b.pendingLabel = ""
		return next

	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
		default: // goto (unmodeled): conservatively an exit
			b.edge(b.cur, b.cfg.Exit)
		}
		return b.newBlock()

	default:
		// Assignments, declarations, sends, inc/dec, go, empty: straight
		// line.
		b.cur.Stmts = append(b.cur.Stmts, s)
		return nil
	}
}

// switchLike lowers switch and type-switch: the tag block fans out to
// every case body, each joining after; fallthrough edges to the next
// case's body. A missing default adds the no-case-matched edge.
func (b *cfgBuilder) switchLike(s ast.Stmt) *Block {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, s.Assign)
		body = s.Body
	}
	tag := b.cur
	tag.Stmts = append(tag.Stmts, s)
	join := b.newBlock()

	// Pre-create one body block per case so fallthrough can see the next.
	var cases []*ast.CaseClause
	var blocks []*Block
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cases = append(cases, cc)
		blocks = append(blocks, b.newBlock())
	}
	label := b.pendingLabel
	b.pendingLabel = ""
	for i, cc := range cases {
		cb := blocks[i]
		b.edge(tag, cb)
		var next *Block
		if i+1 < len(blocks) {
			next = blocks[i+1]
		} else {
			next = join // fallthrough off the last case is illegal anyway
		}
		b.pushLoop(loopTargets{label: label, brk: join, caseFollowing: next})
		b.cur = cb
		b.stmts(cc.Body)
		b.edge(b.cur, join)
		b.popLoop()
	}
	if !hasDefault {
		b.edge(tag, join)
	}
	return join
}

func (b *cfgBuilder) pushLoop(t loopTargets) { b.loops = append(b.loops, t) }
func (b *cfgBuilder) popLoop()               { b.loops = b.loops[:len(b.loops)-1] }

// findTarget resolves a break/continue to its block. Unlabeled continue
// targets the innermost loop; unlabeled break the innermost loop,
// switch, or select.
func (b *cfgBuilder) findTarget(label *ast.Ident, isContinue bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		t := b.loops[i]
		if isContinue && !t.isLoop {
			continue
		}
		if label != nil && t.label != label.Name {
			continue
		}
		if isContinue {
			return t.cont
		}
		return t.brk
	}
	return nil
}

// neverReturns recognizes calls that terminate the goroutine: the panic
// builtin, os.Exit, runtime.Goexit, and the log.Fatal family.
func (b *cfgBuilder) neverReturns(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "panic" {
			return false
		}
		if b.info == nil {
			return true
		}
		_, isBuiltin := b.info.Uses[fun].(*types.Builtin)
		return isBuiltin
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		fn, ok := b.info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			switch fn.Name() {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	return false
}

// Dominators computes the immediate dominator of every block reachable
// from Entry (the Cooper–Harvey–Kennedy iterative algorithm over a
// reverse postorder). idom[Entry.Index] == Entry; unreachable blocks
// get nil.
func (c *CFG) Dominators() []*Block {
	rpo := c.reversePostorder()
	order := make([]int, len(c.Blocks)) // block index → RPO position
	for i := range order {
		order[i] = -1
	}
	for i, blk := range rpo {
		order[blk.Index] = i
	}
	idom := make([]*Block, len(c.Blocks))
	idom[c.Entry.Index] = c.Entry
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			if blk == c.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range blk.Preds {
				if idom[p.Index] == nil {
					continue // unprocessed or unreachable
				}
				if newIdom == nil {
					newIdom = p
					continue
				}
				newIdom = intersectDom(idom, order, p, newIdom)
			}
			if newIdom != nil && idom[blk.Index] != newIdom {
				idom[blk.Index] = newIdom
				changed = true
			}
		}
	}
	return idom
}

func intersectDom(idom []*Block, order []int, a, b *Block) *Block {
	for a != b {
		for order[a.Index] > order[b.Index] {
			a = idom[a.Index]
		}
		for order[b.Index] > order[a.Index] {
			b = idom[b.Index]
		}
	}
	return a
}

// Dominates reports whether a dominates b under idom (reflexive).
func Dominates(idom []*Block, a, b *Block) bool {
	for {
		if b == a {
			return true
		}
		next := idom[b.Index]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// reversePostorder over the blocks reachable from Entry.
func (c *CFG) reversePostorder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(blk *Block) {
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, blk)
	}
	dfs(c.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// BlockLocalNodes returns the parts of a block statement that actually
// execute in the block holding it. Control statements sit as the last
// entry of the block evaluating their condition, so walking the whole
// subtree would attribute branch-body effects to the condition block;
// this narrows the walk to the locally-evaluated expressions. A
// switch's case expressions are compared in the tag block, so they are
// local to it. Init statements are appended to blocks separately by the
// builder and are not repeated here.
func BlockLocalNodes(st ast.Stmt) []ast.Node {
	switch st := st.(type) {
	case *ast.IfStmt:
		return []ast.Node{st.Cond}
	case *ast.ForStmt:
		if st.Cond != nil {
			return []ast.Node{st.Cond}
		}
		return nil
	case *ast.RangeStmt:
		return []ast.Node{st.X}
	case *ast.SwitchStmt:
		var out []ast.Node
		if st.Tag != nil {
			out = append(out, st.Tag)
		}
		for _, cl := range st.Body.List {
			for _, e := range cl.(*ast.CaseClause).List {
				out = append(out, e)
			}
		}
		return out
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		return nil
	default:
		return []ast.Node{st}
	}
}

// CanReachExitAvoiding reports whether Exit is reachable from any
// successor path out of `from` without entering a block for which
// avoid returns true. `from` itself is not tested — use it for "does
// some path from this spawn reach return without passing a join". A
// path that dies in an infinite loop never reaches Exit and does not
// count.
func (c *CFG) CanReachExitAvoiding(from *Block, avoid func(*Block) bool) bool {
	seen := make([]bool, len(c.Blocks))
	var dfs func(*Block) bool
	dfs = func(blk *Block) bool {
		if blk == c.Exit {
			return true
		}
		if seen[blk.Index] || avoid(blk) {
			return false
		}
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	for _, s := range from.Succs {
		if dfs(s) {
			return true
		}
	}
	return false
}
