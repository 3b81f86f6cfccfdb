package graph

import (
	"fmt"
	"math"
)

// LineTable is the neighbor table of L(g), the line graph of a graph g,
// read without building L: line vertex e is g's edge e = {U, V}, and its
// row lists the identifiers of the other edges at U, in U's port order,
// then those of the other edges at V. g is simple, so no other edge shares
// both endpoints: the two parts are disjoint, and row e is e's
// neighborhood in L(g) as a set, in an order of its own. Each entry is one
// arc of L in 4 bytes, where LineGraph spends 16 (edge list, arcs, mates).
type LineTable struct {
	off    []int32 // len M(g)+1: row e is nbr[off[e]:off[e+1]]
	nbr    []int32
	maxDeg int
}

// NewLineTable builds g's line table in one pass over g's edges, copying
// the adjacency of both endpoints of each into its row, with no sort and
// no mate pass; the offsets and the rows share one allocation. The table
// holds Σ_v d(v)(d(v)−1) entries, known from the degrees before anything
// is allocated, and it fails when that exceeds the int32 offsets.
func NewLineTable(g *Graph) (*LineTable, error) {
	var size int64
	for v := 0; v < g.N(); v++ {
		d := int64(g.Degree(v))
		size += d * (d - 1)
	}
	if size > math.MaxInt32 {
		return nil, fmt.Errorf("graph: line table of %d entries exceeds its int32 offsets (at most %d)", size, math.MaxInt32)
	}
	m := g.M()
	slab := make([]int32, m+1+int(size))
	t := &LineTable{off: slab[: m+1 : m+1], nbr: slab[m+1:]}
	k := int32(0)
	for e, ed := range g.edges {
		t.off[e] = k
		for _, a := range g.Adj(int(ed.U)) {
			if a.Edge != int32(e) {
				t.nbr[k] = a.Edge
				k++
			}
		}
		for _, a := range g.Adj(int(ed.V)) {
			if a.Edge != int32(e) {
				t.nbr[k] = a.Edge
				k++
			}
		}
		t.maxDeg = max(t.maxDeg, int(k-t.off[e]))
	}
	t.off[m] = k
	return t, nil
}

// N returns the number of line vertices, M(g).
func (t *LineTable) N() int { return len(t.off) - 1 }

// Row returns the neighbors of line vertex e. The returned slice must not
// be modified; it is shared with the table.
func (t *LineTable) Row(e int) []int32 {
	lo, hi := t.off[e], t.off[e+1]
	return t.nbr[lo:hi:hi]
}

// Degree returns the degree of line vertex e, d(U)+d(V)−2.
func (t *LineTable) Degree(e int) int { return int(t.off[e+1] - t.off[e]) }

// MaxDegree returns Δ(L(g)).
func (t *LineTable) MaxDegree() int { return t.maxDeg }

// LineGraph constructs L(G): one vertex per edge of g, with two vertices
// adjacent iff the corresponding edges share an endpoint; L-vertex e is
// g's edge e. The result is the graph a Builder would build from those
// adjacencies (same edge identifiers, same port order), built without its
// sort. The edge colorings never build it: they read L through
// NewLineTable's rows. It serves the clique covers (cliques.LineCover)
// and as the table's test oracle.
func LineGraph(g *Graph) *Graph {
	// |E(L(G))| = Σ_v deg(v)·(deg(v)−1)/2 exactly; pre-size the edge list
	// so multi-million-arc line graphs build without append regrowth.
	lm := 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		lm += d * (d - 1) / 2
	}
	// Edge identifiers follow (U, V) order, so every adjacency list holds
	// increasing edge identifiers (fromSortedEdges). The L-neighbors of e
	// above e are therefore the entries after e in the lists of its two
	// endpoints; next[v] is e's position in Adj(v), since the edges at v
	// are visited in identifier order. The two suffixes are disjoint (a
	// second shared endpoint would make them the same edge), so merging
	// them for e = 0, 1, … emits L's edges already sorted by (U, V) and
	// distinct — exactly the list Build would sort them into.
	ledges := make([]Edge, 0, lm)
	next := make([]int32, g.N())
	for e, ed := range g.edges {
		a := g.Adj(int(ed.U))[next[ed.U]+1:]
		b := g.Adj(int(ed.V))[next[ed.V]+1:]
		next[ed.U]++
		next[ed.V]++
		for len(a) > 0 || len(b) > 0 {
			var f int32
			if len(b) == 0 || (len(a) > 0 && a[0].Edge < b[0].Edge) {
				f, a = a[0].Edge, a[1:]
			} else {
				f, b = b[0].Edge, b[1:]
			}
			ledges = append(ledges, Edge{U: int32(e), V: f})
		}
	}
	return fromSortedEdges(g.M(), ledges)
}

// Hypergraph is a c-uniform hypergraph: every hyperedge has exactly Rank
// vertices. The paper uses line graphs of c-uniform hypergraphs as the
// canonical family of diversity-c graphs (§1.2).
type Hypergraph struct {
	NVert int
	Rank  int
	Edges [][]int32 // each of length Rank, sorted, distinct vertices
}

// NewHypergraph validates and constructs a c-uniform hypergraph.
func NewHypergraph(nVert, rank int, edges [][]int) (*Hypergraph, error) {
	if rank < 2 {
		return nil, fmt.Errorf("graph: hypergraph rank %d < 2", rank)
	}
	h := &Hypergraph{NVert: nVert, Rank: rank}
	for _, e := range edges {
		if len(e) != rank {
			return nil, fmt.Errorf("graph: hyperedge %v has %d vertices, want %d", e, len(e), rank)
		}
		sortedCopy := make([]int32, rank)
		seen := make(map[int]bool, rank)
		for i, v := range e {
			if v < 0 || v >= nVert {
				return nil, fmt.Errorf("graph: hyperedge vertex %d out of range", v)
			}
			if seen[v] {
				return nil, fmt.Errorf("graph: repeated vertex %d in hyperedge %v", v, e)
			}
			seen[v] = true
			sortedCopy[i] = int32(v)
		}
		for i := 1; i < rank; i++ {
			for j := i; j > 0 && sortedCopy[j] < sortedCopy[j-1]; j-- {
				sortedCopy[j], sortedCopy[j-1] = sortedCopy[j-1], sortedCopy[j]
			}
		}
		h.Edges = append(h.Edges, sortedCopy)
	}
	return h, nil
}

// LineGraph constructs the line graph of h: one vertex per hyperedge, two
// adjacent iff the hyperedges intersect. byVertex[v] lists, ascending, the
// hyperedges containing hypergraph vertex v: each list is a clique of the
// line graph, and every line-graph vertex lies in Rank of them, so the
// lists of two or more members are a cover of diversity ≤ Rank
// (cliques.HypergraphLineCover).
func (h *Hypergraph) LineGraph() (l *Graph, byVertex [][]int32) {
	byVertex = make([][]int32, h.NVert)
	for id, e := range h.Edges {
		for _, v := range e {
			byVertex[v] = append(byVertex[v], int32(id))
		}
	}
	b := NewBuilder(len(h.Edges))
	// Two hyperedges may share several vertices; dedupe pairs.
	seen := make(map[int64]bool)
	for _, group := range byVertex {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, c := group[i], group[j]
				if a > c {
					a, c = c, a
				}
				key := int64(a)<<32 | int64(c)
				if seen[key] {
					continue
				}
				seen[key] = true
				b.AddEdge(int(a), int(c))
			}
		}
	}
	return b.MustBuild(), byVertex
}
