package analyzers

// A small forward-dataflow toolkit over the CFG: a generic worklist
// fixpoint engine plus the lattices the flow passes use — sets joined
// by union (may: lockorder's held locks, decodebounds' taint) or by
// intersect (must: lockguard's held locks; both lock passes run the
// held-lock driver in lockorder.go) and reaching definitions (the
// classic forward problem, used by decodebounds to see which
// assignments of a size variable reach an allocation site). Everything
// is standard library only; the engine is deliberately tiny — a
// handful of blocks per function, convergence in a few sweeps.

import (
	"go/ast"
	"go/types"
)

// Flow describes one forward dataflow problem with block states of
// type S. Transfer must be monotone for the fixpoint to terminate.
type Flow[S any] struct {
	// Entry is the state on entry to the CFG's entry block.
	Entry S
	// Clone deep-copies a state (states are mutated by Transfer).
	Clone func(S) S
	// Merge folds src into dst at a join point and reports whether dst
	// changed.
	Merge func(dst, src S) bool
	// Transfer applies one block's statements to a clone of its IN
	// state and returns the OUT state.
	Transfer func(b *Block, in S) S
}

// Forward runs the problem to fixpoint and returns the IN state of
// every reachable block (indexed by Block.Index; unreachable blocks
// keep the zero S).
func Forward[S any](c *CFG, f Flow[S]) []S {
	in := make([]S, len(c.Blocks))
	have := make([]bool, len(c.Blocks))
	in[c.Entry.Index] = f.Entry
	have[c.Entry.Index] = true

	rpo := c.reversePostorder()
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			if !have[blk.Index] {
				continue
			}
			out := f.Transfer(blk, f.Clone(in[blk.Index]))
			for _, s := range blk.Succs {
				if !have[s.Index] {
					in[s.Index] = f.Clone(out)
					have[s.Index] = true
					changed = true
				} else if f.Merge(in[s.Index], out) {
					changed = true
				}
			}
		}
	}
	return in
}

// set is the lattice element of the held-lock and taint flows: joined by
// union for may-facts, by intersect for must-facts.
type set[K comparable] map[K]struct{}

func (s set[K]) add(k K)      { s[k] = struct{}{} }
func (s set[K]) has(k K) bool { _, ok := s[k]; return ok }
func (s set[K]) clone() set[K] {
	out := make(set[K], len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// union folds src into dst, reporting growth.
func (s set[K]) union(src set[K]) bool {
	grew := false
	for k := range src {
		if !s.has(k) {
			s.add(k)
			grew = true
		}
	}
	return grew
}

// intersect drops from dst every member src lacks, reporting shrinkage:
// the must-lattice join.
func (s set[K]) intersect(src set[K]) bool {
	shrank := false
	for k := range s {
		if !src.has(k) {
			delete(s, k)
			shrank = true
		}
	}
	return shrank
}

// ReachingDefs is the reaching-definitions state: for each variable,
// the set of assignment statements whose value may still be current.
type ReachingDefs map[types.Object]set[ast.Node]

func (r ReachingDefs) clone() ReachingDefs {
	out := make(ReachingDefs, len(r))
	for obj, defs := range r {
		out[obj] = defs.clone()
	}
	return out
}

func (r ReachingDefs) merge(src ReachingDefs) bool {
	grew := false
	for obj, defs := range src {
		dst, ok := r[obj]
		if !ok {
			r[obj] = defs.clone()
			grew = true
			continue
		}
		if dst.union(defs) {
			grew = true
		}
	}
	return grew
}

// gen kills obj's previous definitions and records def as the sole one.
func (r ReachingDefs) gen(obj types.Object, def ast.Node) {
	s := make(set[ast.Node], 1)
	s.add(def)
	r[obj] = s
}

// ReachingDefinitions solves the classic problem over one CFG: the
// result holds, for each reachable block, the definitions live on
// entry. info resolves identifiers to objects; only simple variables
// (Ident targets of assignments, value specs, and range/type-switch
// bindings) are tracked — field and index writes are not definitions
// of a trackable object.
func ReachingDefinitions(c *CFG, info *types.Info) []ReachingDefs {
	return Forward(c, Flow[ReachingDefs]{
		Entry: ReachingDefs{},
		Clone: ReachingDefs.clone,
		Merge: func(dst, src ReachingDefs) bool { return dst.merge(src) },
		Transfer: func(b *Block, in ReachingDefs) ReachingDefs {
			for _, st := range b.Stmts {
				EachDefinition(st, info, func(obj types.Object, def ast.Node) {
					in.gen(obj, def)
				})
			}
			return in
		},
	})
}

// EachDefinition invokes fn for every simple-variable definition the
// statement performs: assignments and short declarations to plain
// identifiers, var specs, inc/dec, and the per-iteration bindings of a
// range statement. Nested function literals are opaque (their bodies
// are separate contexts).
func EachDefinition(st ast.Stmt, info *types.Info, fn func(obj types.Object, def ast.Node)) {
	bind := func(id *ast.Ident, def ast.Node) {
		if id == nil || id.Name == "_" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			fn(obj, def)
			return
		}
		if obj := info.Uses[id]; obj != nil {
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				fn(obj, def)
			}
		}
	}
	switch st := st.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				bind(id, st)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := st.X.(*ast.Ident); ok {
			bind(id, st)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						bind(id, st)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if id, ok := st.Key.(*ast.Ident); ok {
			bind(id, st)
		}
		if id, ok := st.Value.(*ast.Ident); ok {
			bind(id, st)
		}
	case *ast.TypeSwitchStmt:
		if as, ok := st.Assign.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					bind(id, st)
				}
			}
		}
	}
}
