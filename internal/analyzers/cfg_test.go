package analyzers

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFunc typechecks one source file and returns the named function's
// declaration plus the info needed to build its CFG.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgtest.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("cfgtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, fset
		}
	}
	t.Fatalf("no function %q in source", name)
	return nil, nil, nil
}

// stmtBlock finds the block containing the statement whose rendered
// source line contains marker.
func stmtBlock(t *testing.T, c *CFG, fset *token.FileSet, src, marker string) *Block {
	t.Helper()
	wantLine := 0
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, marker) {
			wantLine = i + 1
			break
		}
	}
	if wantLine == 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	for _, b := range c.Blocks {
		for _, s := range b.Stmts {
			if fset.Position(s.Pos()).Line == wantLine {
				return b
			}
		}
	}
	t.Fatalf("no block holds the statement at line %d (%q)", wantLine, marker)
	return nil
}

func TestCFGLinearAndBranch(t *testing.T) {
	src := `package cfgtest
func f(x int) int {
	a := 1 // A
	if x > 0 {
		a = 2 // THEN
	} else {
		a = 3 // ELSE
	}
	return a // RET
}`
	fd, info, fset := parseFunc(t, src, "f")
	c := NewCFG(fd.Body, info)

	entry := stmtBlock(t, c, fset, src, "// A")
	then := stmtBlock(t, c, fset, src, "// THEN")
	els := stmtBlock(t, c, fset, src, "// ELSE")
	ret := stmtBlock(t, c, fset, src, "// RET")

	if entry != c.Entry {
		t.Errorf("first statement not in the entry block")
	}
	if len(entry.Succs) != 2 {
		t.Fatalf("condition block has %d successors, want 2", len(entry.Succs))
	}
	idom := c.Dominators()
	for _, b := range []*Block{then, els, ret} {
		if !Dominates(idom, entry, b) {
			t.Errorf("entry should dominate block %d", b.Index)
		}
	}
	if Dominates(idom, then, ret) || Dominates(idom, els, ret) {
		t.Errorf("neither branch may dominate the join/return")
	}
	// The return block reaches Exit.
	if !c.CanReachExitAvoiding(entry, func(b *Block) bool { return false }) {
		t.Errorf("exit unreachable from entry")
	}
}

func TestCFGEarlyReturnAndPanic(t *testing.T) {
	src := `package cfgtest
func f(x int) int {
	if x < 0 {
		return -1 // EARLY
	}
	if x == 0 {
		panic("zero") // PANIC
	}
	x++ // TAIL
	return x
}`
	fd, info, fset := parseFunc(t, src, "f")
	c := NewCFG(fd.Body, info)
	early := stmtBlock(t, c, fset, src, "// EARLY")
	pan := stmtBlock(t, c, fset, src, "// PANIC")
	tail := stmtBlock(t, c, fset, src, "// TAIL")

	hasExit := func(b *Block) bool {
		for _, s := range b.Succs {
			if s == c.Exit {
				return true
			}
		}
		return false
	}
	if !hasExit(early) {
		t.Errorf("return block must edge to Exit")
	}
	if !hasExit(pan) {
		t.Errorf("panic block must edge to Exit")
	}
	// The panic is terminal: the tail must not be among its successors.
	for _, s := range pan.Succs {
		if s == tail {
			t.Errorf("panic block must not fall through to the tail")
		}
	}
}

func TestCFGLoopsAndAvoidance(t *testing.T) {
	src := `package cfgtest
import "sync"
func f(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1) // ADD
	}
	if n > 10 {
		return // EARLY
	}
	wg.Wait() // WAIT
}`
	fd, info, fset := parseFunc(t, src, "f")
	c := NewCFG(fd.Body, info)
	add := stmtBlock(t, c, fset, src, "// ADD")
	wait := stmtBlock(t, c, fset, src, "// WAIT")

	// From the loop body one can reach Exit while avoiding the Wait block
	// (via the early return).
	if !c.CanReachExitAvoiding(add, func(b *Block) bool { return b == wait }) {
		t.Errorf("early return should make Exit reachable without the Wait")
	}
	// Loop back edge: the Add block can re-reach itself.
	seen := false
	var dfs func(b *Block, visited map[*Block]bool)
	dfs = func(b *Block, visited map[*Block]bool) {
		if visited[b] {
			return
		}
		visited[b] = true
		for _, s := range b.Succs {
			if s == add {
				seen = true
			}
			dfs(s, visited)
		}
	}
	dfs(add, map[*Block]bool{})
	if !seen {
		t.Errorf("loop body has no back edge to itself")
	}
}

func TestCFGSelectAndSwitch(t *testing.T) {
	src := `package cfgtest
func f(ch chan int, x int) int {
	select {
	case v := <-ch:
		return v // RECV
	default:
		x++ // DEF
	}
	switch x {
	case 1:
		x = 10 // ONE
		fallthrough
	case 2:
		x = 20 // TWO
	}
	return x // RET
}`
	fd, info, fset := parseFunc(t, src, "f")
	c := NewCFG(fd.Body, info)
	one := stmtBlock(t, c, fset, src, "// ONE")
	two := stmtBlock(t, c, fset, src, "// TWO")
	ret := stmtBlock(t, c, fset, src, "// RET")

	// fallthrough: ONE must edge into TWO's block.
	found := false
	for _, s := range one.Succs {
		if s == two {
			found = true
		}
	}
	if !found {
		t.Errorf("fallthrough edge from case 1 to case 2 missing")
	}
	idom := c.Dominators()
	if Dominates(idom, one, ret) {
		t.Errorf("a switch case must not dominate the code after the switch")
	}
}

// TestBlockLocalNodesSwitch: a switch's tag and its case expressions are
// evaluated in the tag block; the case bodies are not.
func TestBlockLocalNodesSwitch(t *testing.T) {
	src := `package cfgtest
func f(x, y int) int {
	switch x + 1 {
	case y, 2 * y:
		return 1
	case 3:
	}
	return 0
}`
	fd, _, fset := parseFunc(t, src, "f")
	var got []string
	for _, n := range BlockLocalNodes(fd.Body.List[0]) {
		var sb strings.Builder
		if err := printer.Fprint(&sb, fset, n); err != nil {
			t.Fatal(err)
		}
		got = append(got, sb.String())
	}
	if want := "x + 1|y|2 * y|3"; strings.Join(got, "|") != want {
		t.Errorf("BlockLocalNodes(switch) = %q, want %q", strings.Join(got, "|"), want)
	}
}

func TestCFGDefersRecorded(t *testing.T) {
	src := `package cfgtest
import "sync"
func f(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	if true {
		defer println("branchy")
	}
}`
	fd, info, _ := parseFunc(t, src, "f")
	c := NewCFG(fd.Body, info)
	if len(c.Defers) != 2 {
		t.Errorf("recorded %d defers, want 2", len(c.Defers))
	}
}

func TestCFGEveryBlockEdgesConsistent(t *testing.T) {
	// Succ/pred symmetry over a shape-heavy function.
	src := `package cfgtest
func f(xs []int) int {
	total := 0
outer:
	for i, x := range xs {
		switch {
		case x < 0:
			continue
		case x == 0:
			break outer
		}
		for j := 0; j < x; j++ {
			if j == i {
				total += j
				continue
			}
			total++
		}
	}
	return total
}`
	fd, info, _ := parseFunc(t, src, "f")
	c := NewCFG(fd.Body, info)
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("block %d → %d has no matching pred", b.Index, s.Index)
			}
		}
	}
	if len(c.Exit.Succs) != 0 {
		t.Errorf("Exit must have no successors")
	}
}

func ExampleNewCFG() {
	fset := token.NewFileSet()
	f, _ := parser.ParseFile(fset, "x.go", `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, parser.SkipObjectResolution)
	fd := f.Decls[0].(*ast.FuncDecl)
	c := NewCFG(fd.Body, nil)
	fmt.Println(len(c.Blocks) > 3, c.Exit == c.Blocks[1])
	// Output: true true
}
