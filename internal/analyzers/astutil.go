package analyzers

// Shared AST helpers for the passes: expression rendering (for lock
// names and messages) and a parent-stack walker (for context-sensitive
// checks like "is this make guarded by a cap() test").

import (
	"go/ast"
	"go/token"
)

// exprString renders simple access paths — identifiers and selector
// chains like "s.mu" or "inst.csr" — and returns "?" for anything more
// complex, which deliberately never matches a lock name.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X)
	}
	return "?"
}

// walkStack walks the tree rooted at n, invoking fn with each node and
// the stack of its ancestors (outermost first, not including n). If fn
// returns false the node's children are skipped.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		stack = append(stack, n)
		if !ok {
			// Still push/pop symmetrically: Inspect will send the nil pop
			// only if we return true, so pop here instead.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// receiverName returns the name of a method's receiver, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// identObjPos returns the declaration position of the object an
// identifier resolves to, or token.NoPos.
func identObjPos(p *Pass, id *ast.Ident) token.Pos {
	if obj := p.TypesInfo.Uses[id]; obj != nil {
		return obj.Pos()
	}
	if obj := p.TypesInfo.Defs[id]; obj != nil {
		return obj.Pos()
	}
	return token.NoPos
}
