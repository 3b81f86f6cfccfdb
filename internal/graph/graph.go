// Package graph provides the static graph representation used throughout
// distcolor: immutable graphs stored as compressed sparse rows, with stable
// edge identifiers, induced and spanning subgraphs that remember their
// embedding into the parent graph, line tables (the neighbor rows through
// which the edge algorithms read a line graph without building it), line
// graphs (of graphs and of uniform hypergraphs), and edge orientations.
//
// Vertices of a Graph are the integers 0..N()-1. Every undirected edge has a
// stable identifier 0..M()-1; adjacency lists expose, for each incident edge,
// both the neighbor and that edge identifier, which is what lets the
// edge-coloring algorithms of the paper run without re-discovering edges.
// Every directed arc has an index 0..NumArcs()-1: the arcs of v are the
// index range Range(v), in the port order of Adj(v), and Mates pairs each
// arc with its reverse, the delivery permutation of the simulator's message
// planes.
package graph

import (
	"fmt"
	"sort"
)

// Arc is one directed half of an undirected edge as seen from a vertex's
// adjacency list.
type Arc struct {
	To   int32 // neighbor vertex
	Edge int32 // identifier of the undirected edge
}

// Edge records the endpoints of an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// Graph is an immutable simple undirected graph, stored as compressed
// sparse rows: the arcs of vertex v are arcs[off[v]:off[v+1]], in port
// order, and mate[j] is the index of the reverse of arc j (the arc of the
// same edge at arc j's neighbor, pointing back), so mate is an involution.
// The simulator's message planes and the Lemma 5.1 merge are laid out
// over these arc indices.
type Graph struct {
	off    []int32 // len N()+1
	arcs   []Arc   // len 2·M()
	mate   []int32 // len 2·M()
	edges  []Edge
	maxDeg int
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are rejected at Build time with an error, because every
// algorithm in this repository assumes a simple graph.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph on n vertices (n ≥ 0).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Order of u and v is irrelevant.
func (b *Builder) AddEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{int32(u), int32(v)})
}

// Build validates the accumulated edges and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if e.U < 0 || int(e.V) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, b.n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
	}
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for i := 1; i < len(edges); i++ {
		if edges[i] == edges[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", edges[i].U, edges[i].V)
		}
	}
	return fromSortedEdges(b.n, edges), nil
}

// FromSortedEdges builds the graph on n vertices whose edge list is edges,
// for constructions that produce their edges already sorted by (U, V):
// edge i gets identifier i, as Build would assign it, without Build's copy
// and sort. It fails unless every edge has 0 ≤ U < V < n and the list
// ascends strictly. The graph takes ownership of edges.
func FromSortedEdges(n int, edges []Edge) (*Graph, error) {
	for i, e := range edges {
		if e.U < 0 || e.U >= e.V || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} is not U < V in [0,%d)", e.U, e.V, n)
		}
		if i > 0 && (e.U < edges[i-1].U || e.U == edges[i-1].U && e.V <= edges[i-1].V) {
			return nil, fmt.Errorf("graph: edge {%d,%d} is out of (U, V) order or repeated", e.U, e.V)
		}
	}
	return fromSortedEdges(n, edges), nil
}

// fromSortedEdges builds the graph on n vertices whose edge list is edges:
// valid, distinct, and sorted by (U, V). Edge i gets identifier i, so
// identifiers follow (U, V) order, and the graph takes ownership of the
// slice.
//
// One pass over the sorted edge list places both arcs of every edge and
// their mutual mates. For vertex v it places the arcs with To < v from
// edges (u,v) in increasing u, followed by edges (v,w) in increasing w —
// so every range holds increasing neighbors, which HasEdge/EdgeID rely
// on, and increasing edge identifiers, which LineGraph relies on.
func fromSortedEdges(n int, edges []Edge) *Graph {
	g := new(Graph)
	g.place(n, edges, make([]int32, n+1), make([]Arc, 2*len(edges)), make([]int32, 2*len(edges)))
	return g
}

// place is fromSortedEdges into storage the caller provides: off holds
// n+1 zeros, and arcs and mate hold 2·len(edges) entries each.
func (g *Graph) place(n int, edges []Edge, off []int32, arcs []Arc, mate []int32) {
	*g = Graph{off: off, arcs: arcs, mate: mate, edges: edges}
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 1; v <= n; v++ {
		g.maxDeg = max(g.maxDeg, int(off[v]))
		off[v] += off[v-1]
	}
	// off[v] is v's fill cursor: it ends at v's end, the start of v+1,
	// and one shift restores the offsets.
	for id, e := range edges {
		i, j := off[e.U], off[e.V]
		off[e.U], off[e.V] = i+1, j+1
		arcs[i] = Arc{To: e.V, Edge: int32(id)}
		arcs[j] = Arc{To: e.U, Edge: int32(id)}
		mate[i], mate[j] = j, i
	}
	copy(off[1:], off[:n])
	off[0] = 0
}

// MustBuild is Build for static graphs known to be valid; it panics on error.
// Intended for tests and generators that construct edges programmatically.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// NumArcs returns the number of directed arcs, 2·M().
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns Δ(G).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Adj returns the adjacency list of v: its arcs in port order. The
// returned slice must not be modified; it is shared with the graph.
func (g *Graph) Adj(v int) []Arc {
	lo, hi := g.off[v], g.off[v+1]
	return g.arcs[lo:hi:hi]
}

// Range returns the arc index range [lo, hi) of v: port p of v is arc
// lo+p, the arc Adj(v)[p].
func (g *Graph) Range(v int) (lo, hi int) { return int(g.off[v]), int(g.off[v+1]) }

// Mates returns the reverse-arc index of every arc: for the arc j of v on
// port p, over edge e to u, Mates()[j] is the arc of e in u's range, the
// port on which u hears v. The returned slice must not be modified.
func (g *Graph) Mates() []int32 { return g.mate }

// Endpoints returns the endpoints (u < v) of edge e.
func (g *Graph) Endpoints(e int) (int, int) {
	ed := g.edges[e]
	return int(ed.U), int(ed.V)
}

// Edges returns the edge list. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Other returns the endpoint of edge e different from v.
func (g *Graph) Other(e, v int) int {
	ed := g.edges[e]
	if int(ed.U) == v {
		return int(ed.V)
	}
	if int(ed.V) == v {
		return int(ed.U)
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d", v, e))
}

// HasEdge reports whether {u,v} is an edge, in O(log deg) time.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	a := g.Adj(u)
	if g.Degree(v) < len(a) {
		a = g.Adj(v)
		u, v = v, u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= int32(v) })
	return i < len(a) && a[i].To == int32(v)
}

// EdgeID returns the identifier of edge {u,v} and whether it exists.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u == v {
		return 0, false
	}
	a := g.Adj(u)
	if g.Degree(v) < len(a) {
		a = g.Adj(v)
		u, v = v, u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= int32(v) })
	if i < len(a) && a[i].To == int32(v) {
		return int(a[i].Edge), true
	}
	return 0, false
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// Path returns the path graph on n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n ≥ 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph.Cycle: need n >= 3")
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *Graph {
	bl := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bl.AddEdge(u, a+v)
		}
	}
	return bl.MustBuild()
}
