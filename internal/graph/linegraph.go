package graph

import "fmt"

// LineGraph constructs L(G): one vertex per edge of g, with two vertices
// adjacent iff the corresponding edges share an endpoint; L-vertex e is
// g's edge e. The result is the graph a Builder would build from those
// adjacencies (same edge identifiers, same port order), built without its
// sort. The canonical clique cover of L(G) is cliques.LineCover's.
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
