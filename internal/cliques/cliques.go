// Package cliques implements the clique-cover machinery of Section 2 of the
// paper: consistent clique identification (footnote 3), the diversity
// parameter D (the maximum number of identified cliques any vertex belongs
// to), the maximal clique size S, and restriction of covers to induced
// subgraphs — the operation performed at every level of the CD-Coloring
// recursion — and the canonical covers of line graphs of graphs and of
// uniform hypergraphs.
//
// A Cover need not consist of maximal cliques; what the algorithms require
// is exactly the footnote-3 property: every clique is complete in G, and the
// cliques containing a vertex contain all its neighbors (equivalently, every
// edge of G lies inside at least one clique of the cover).
package cliques

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Cover is a consistent clique identification of a graph.
type Cover struct {
	// Cliques lists the identified cliques as vertex sets (sorted).
	Cliques [][]int32
	// MemberOf[v] lists the indices of the cliques containing v (sorted).
	MemberOf [][]int32
}

// NewCover builds a Cover from clique vertex lists and validates it against
// g: every listed clique must be complete in g and every edge of g must be
// inside some clique.
func NewCover(g *graph.Graph, cliqueLists [][]int32) (*Cover, error) {
	c := &Cover{
		Cliques:  make([][]int32, len(cliqueLists)),
		MemberOf: make([][]int32, g.N()),
	}
	for i, cl := range cliqueLists {
		cp := make([]int32, len(cl))
		copy(cp, cl)
		sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
		for j := 1; j < len(cp); j++ {
			if cp[j] == cp[j-1] {
				return nil, fmt.Errorf("cliques: clique %d repeats vertex %d", i, cp[j])
			}
		}
		c.Cliques[i] = cp
		for _, v := range cp {
			if v < 0 || int(v) >= g.N() {
				return nil, fmt.Errorf("cliques: clique %d vertex %d out of range", i, v)
			}
			c.MemberOf[v] = append(c.MemberOf[v], int32(i))
		}
	}
	if err := c.Validate(g); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the footnote-3 consistency conditions against g.
func (c *Cover) Validate(g *graph.Graph) error {
	for i, cl := range c.Cliques {
		for a := 0; a < len(cl); a++ {
			for b := a + 1; b < len(cl); b++ {
				if !g.HasEdge(int(cl[a]), int(cl[b])) {
					return fmt.Errorf("cliques: clique %d contains non-adjacent pair {%d,%d}", i, cl[a], cl[b])
				}
			}
		}
	}
	// Edge cover: every edge inside some clique. Check via shared clique
	// membership of the endpoints.
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if !sharesClique(c.MemberOf[u], c.MemberOf[v]) {
			return fmt.Errorf("cliques: edge {%d,%d} not covered by any clique", u, v)
		}
	}
	return nil
}

func sharesClique(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Diversity returns D: the maximum number of cover cliques any vertex
// belongs to. An isolated vertex contributes 0.
func (c *Cover) Diversity() int {
	d := 0
	for _, m := range c.MemberOf {
		if len(m) > d {
			d = len(m)
		}
	}
	return d
}

// MaxCliqueSize returns S: the size of the largest clique in the cover.
func (c *Cover) MaxCliqueSize() int {
	s := 0
	for _, cl := range c.Cliques {
		if len(cl) > s {
			s = len(cl)
		}
	}
	return s
}

// Restrict produces the cover induced on a vertex-induced subgraph: each
// clique is intersected with the subgraph's vertex set and re-indexed;
// cliques that shrink below two vertices are dropped (they cover no edge).
// Restriction never increases a vertex's membership count, so diversity does
// not grow (cf. Lemma 2.3(ii)).
//
// sub must number its vertices in the parent's order, as InducedSubgraph
// does, so a sorted clique maps to a sorted clique. The kept members are
// counted first, so the restricted cliques share one arena and the
// membership lists another: a restriction makes the same few allocations
// however many cliques it keeps.
func (c *Cover) Restrict(sub *graph.Sub) *Cover {
	// Map original vertex -> subgraph vertex through a pooled dense table:
	// Restrict runs once per recursion level of CD-Coloring, and the map it
	// used to build here dominated the decomposition's allocation profile.
	inv := graph.AcquireDenseIndex(len(c.MemberOf))
	defer inv.Release()
	n := sub.G.N()
	for v := 0; v < n; v++ {
		inv.Put(sub.OrigVertex(v), int32(v))
	}
	// Count the kept cliques, their members, and each vertex's
	// memberships, one slot ahead in memberOff.
	kept, total := 0, 0
	memberOff := make([]int32, n+1)
	for _, cl := range c.Cliques {
		k := inside(cl, inv)
		if k < 2 {
			continue
		}
		kept++
		total += k
		for _, v := range cl {
			if nv, ok := inv.Get(int(v)); ok {
				memberOff[nv+1]++
			}
		}
	}
	for v := 1; v <= n; v++ {
		memberOff[v] += memberOff[v-1]
	}
	out := &Cover{Cliques: make([][]int32, 0, kept), MemberOf: make([][]int32, n)}
	members := make([]int32, total)
	memberships := make([]int32, total)
	for v := range out.MemberOf {
		lo := memberOff[v]
		out.MemberOf[v] = memberships[lo:lo:memberOff[v+1]]
	}
	for _, cl := range c.Cliques {
		k := inside(cl, inv)
		if k < 2 {
			continue
		}
		restricted := members[:0:k]
		members = members[k:]
		for _, v := range cl {
			if nv, ok := inv.Get(int(v)); ok {
				restricted = append(restricted, nv)
			}
		}
		idx := int32(len(out.Cliques))
		out.Cliques = append(out.Cliques, restricted)
		for _, v := range restricted {
			out.MemberOf[v] = append(out.MemberOf[v], idx)
		}
	}
	return out
}

// inside counts the members of cl that inv maps into a subgraph.
func inside(cl []int32, inv *graph.DenseIndex) int {
	k := 0
	for _, v := range cl {
		if inv.Has(int(v)) {
			k++
		}
	}
	return k
}

// LineCover builds the line graph L(G) of g with its canonical cover: each
// vertex of g of degree ≥ 2 contributes the clique of its incident edges,
// so every L-vertex lies in at most two cliques, diversity D ≤ 2 (§1.2).
// Vertex-coloring L edge-colors g: L-vertex e is g's edge e.
func LineCover(g *graph.Graph) (*graph.Graph, *Cover, error) {
	l := graph.LineGraph(g)
	// The edge ids of every arc, in arc order: v's are its range.
	ids := make([]int32, g.NumArcs())
	atVertex := make([][]int32, g.N())
	for v := range atVertex {
		lo, hi := g.Range(v)
		for i, a := range g.Adj(v) {
			ids[lo+i] = a.Edge
		}
		atVertex[v] = ids[lo:hi:hi]
	}
	cov, err := fromGroups(l, atVertex)
	if err != nil {
		return nil, nil, err
	}
	return l, cov, nil
}

// HypergraphLineCover builds the line graph of a c-uniform hypergraph with
// its canonical cover: each hypergraph vertex in two or more hyperedges
// contributes the clique of those hyperedges, so diversity D ≤ c.
func HypergraphLineCover(h *graph.Hypergraph) (*graph.Graph, *Cover, error) {
	l, byVertex := h.LineGraph()
	cov, err := fromGroups(l, byVertex)
	if err != nil {
		return nil, nil, err
	}
	return l, cov, nil
}

// fromGroups builds the cover of g whose cliques are the groups with at
// least two members: a smaller group covers no edge.
func fromGroups(g *graph.Graph, groups [][]int32) (*Cover, error) {
	var lists [][]int32
	for _, grp := range groups {
		if len(grp) >= 2 {
			lists = append(lists, grp)
		}
	}
	return NewCover(g, lists)
}

// MaximalCliques enumerates all maximal cliques of g using Bron–Kerbosch
// with pivoting. Exponential in the worst case; intended for validating
// small graphs and computing true diversity in tests.
func MaximalCliques(g *graph.Graph) [][]int32 {
	var out [][]int32
	n := g.N()
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	var bk func(r, p, x []int32)
	bk = func(r, p, x []int32) {
		if len(p) == 0 && len(x) == 0 {
			cl := make([]int32, len(r))
			copy(cl, r)
			out = append(out, cl)
			return
		}
		// Pivot: vertex of P∪X with most neighbors in P.
		pivot := int32(-1)
		best := -1
		for _, set := range [][]int32{p, x} {
			for _, u := range set {
				cnt := 0
				for _, w := range p {
					if g.HasEdge(int(u), int(w)) {
						cnt++
					}
				}
				if cnt > best {
					best, pivot = cnt, u
				}
			}
		}
		var candidates []int32
		for _, v := range p {
			if pivot < 0 || !g.HasEdge(int(pivot), int(v)) {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int32
			for _, w := range p {
				if g.HasEdge(int(v), int(w)) {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if g.HasEdge(int(v), int(w)) {
					nx = append(nx, w)
				}
			}
			bk(append(r, v), np, nx)
			// Move v from P to X.
			for i, w := range p {
				if w == v {
					p = append(p[:i:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	bk(nil, all, nil)
	return out
}

// TrueDiversity computes the diversity of g with respect to all maximal
// cliques (the paper's default identification when no family-specific cover
// is available). Exponential in the worst case; for tests and small inputs.
func TrueDiversity(g *graph.Graph) int {
	count := make([]int, g.N())
	for _, cl := range MaximalCliques(g) {
		for _, v := range cl {
			count[v]++
		}
	}
	d := 0
	for _, c := range count {
		if c > d {
			d = c
		}
	}
	return d
}

// CoverFromMaximalCliques builds a Cover from the full maximal-clique
// enumeration. Exponential in the worst case; for small graphs.
func CoverFromMaximalCliques(g *graph.Graph) (*Cover, error) {
	return fromGroups(g, MaximalCliques(g))
}
