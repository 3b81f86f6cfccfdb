// Package cliques implements the clique-cover machinery of Section 2 of the
// paper: consistent clique identification (footnote 3), the diversity
// parameter D (the maximum number of identified cliques any vertex belongs
// to), the maximal clique size S, splitting cliques by class — the
// operation performed at every level of the CD-Coloring recursion — and
// the canonical covers of line graphs of graphs and of uniform hypergraphs.
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

// Split restricts every clique to every vertex class of class ∈ [0, k),
// the operation performed at every level of the CD-Coloring recursion.
// Each clique lists its members in ascending order, as a Cover's do. The
// tables cover the span of the classes present, as graph.InducedClasses'
// do: entry i of parts lists, in the order of cliques, every intersection
// of a clique with class first+i that has two or more members; a smaller
// one covers no edge. Members are renumbered by their rank in the class,
// which is InducedClasses' numbering. A vertex's memberships can only be
// dropped, so the diversity of a part is at most the parent's (Lemma
// 2.3(ii)).
//
// One stable counting pass by class places every membership, so within a
// class each run of two or more memberships of one clique is a restricted
// clique, already sorted. The split costs the size of the cover, and the
// parts share one arena of members and one of cliques, however many
// classes there are.
func Split(cliques [][]int32, class []int64, k int64) (parts [][][]int32, first int64, err error) {
	first, last, err := graph.ClassSpan(class, k)
	if err != nil || last < first {
		return nil, 0, err
	}
	span := last - first + 1
	rank := make([]int32, len(class))
	size := make([]int32, span)
	for v, c := range class {
		rank[v] = size[c-first]
		size[c-first]++
	}
	// start counts each class's memberships one slot ahead, then becomes
	// the start of its range in the arenas.
	start := make([]int, span+1)
	for qi, q := range cliques {
		for _, v := range q {
			if v < 0 || int(v) >= len(class) {
				return nil, 0, fmt.Errorf("cliques: clique %d vertex %d outside [0,%d)", qi, v, len(class))
			}
			start[class[v]-first+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	members := make([]int32, start[span])
	owner := make([]int32, start[span])
	next := append([]int(nil), start[:span]...)
	for qi, q := range cliques {
		for _, v := range q {
			c := class[v] - first
			members[next[c]], owner[next[c]] = rank[v], int32(qi)
			next[c]++
		}
	}
	kept := 0
	for i := range span {
		for lo, hi := start[i], 0; lo < start[i+1]; lo = hi {
			if hi = runEnd(owner, lo, start[i+1]); hi-lo >= 2 {
				kept++
			}
		}
	}
	lists := make([][]int32, 0, kept)
	parts = make([][][]int32, span)
	for i := range parts {
		from := len(lists)
		for lo, hi := start[i], 0; lo < start[i+1]; lo = hi {
			if hi = runEnd(owner, lo, start[i+1]); hi-lo >= 2 {
				lists = append(lists, members[lo:hi:hi])
			}
		}
		parts[i] = lists[from:len(lists):len(lists)]
	}
	return parts, first, nil
}

// runEnd returns the end of the run of owner[lo]'s memberships that starts
// at lo, within [lo, end).
func runEnd(owner []int32, lo, end int) int {
	hi := lo + 1
	for hi < end && owner[hi] == owner[lo] {
		hi++
	}
	return hi
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
