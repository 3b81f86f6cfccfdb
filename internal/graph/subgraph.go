package graph

import (
	"fmt"
	"sort"
)

// Sub is a subgraph together with its embedding into a parent graph. It is
// the unit of recursion in the paper's decompositions: CD-Coloring recurses
// on vertex-induced color classes, the star-partition on spanning
// edge-classes; both need to translate results back to the parent.
type Sub struct {
	G *Graph
	// VOrig maps a subgraph vertex to its parent vertex. nil means the
	// identity map (the subgraph is spanning: same vertex set).
	VOrig []int32
	// EOrig maps a subgraph edge to its parent edge identifier. nil means
	// the identity map.
	EOrig []int32
}

// OrigVertex translates subgraph vertex v to the parent graph.
func (s *Sub) OrigVertex(v int) int {
	if s.VOrig == nil {
		return v
	}
	return int(s.VOrig[v])
}

// OrigEdge translates subgraph edge e to the parent graph.
func (s *Sub) OrigEdge(e int) int {
	if s.EOrig == nil {
		return e
	}
	return int(s.EOrig[e])
}

// InducedSubgraph returns the subgraph of g induced by the given vertices,
// which must ascend strictly. Vertex i of the result corresponds to
// vertices[i] in g, so the new indices keep g's vertex order, and reading
// each vertex's higher neighbors in adjacency order yields the induced
// edges already in (U, V) order: the result is built without a sort. The
// vertex translation runs over a pooled DenseIndex, so recursion levels
// (CD-Coloring extracts one subgraph per color class per level) reuse index
// space instead of rebuilding a map each time.
func InducedSubgraph(g *Graph, vertices []int) (*Sub, error) {
	idx := AcquireDenseIndex(g.N())
	defer idx.Release()
	vorig := make([]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("graph: induced vertex %d out of range", v)
		}
		if i > 0 && v <= vertices[i-1] {
			return nil, fmt.Errorf("graph: induced vertices not strictly ascending at %d", v)
		}
		idx.Put(v, int32(i))
		vorig[i] = int32(v)
	}
	var edges []Edge
	var eorig []int32
	for i, v := range vertices {
		for _, a := range g.Adj(v) {
			if int(a.To) < v {
				continue // keep each edge once, from its lower endpoint
			}
			if j, ok := idx.Get(int(a.To)); ok {
				edges = append(edges, Edge{U: int32(i), V: j})
				eorig = append(eorig, a.Edge)
			}
		}
	}
	return &Sub{G: fromSortedEdges(len(vertices), edges), VOrig: vorig, EOrig: eorig}, nil
}

// SpanningSubgraph returns the subgraph of g on the full vertex set
// containing exactly the edges for which keep reports true. g numbers its
// edges in (U, V) order, so the kept edges, taken in identifier order, are
// the subgraph's sorted edge list as they stand.
func SpanningSubgraph(g *Graph, keep func(e int) bool) *Sub {
	kept := 0
	for e := range g.edges {
		if keep(e) {
			kept++
		}
	}
	edges := make([]Edge, 0, kept)
	eorig := make([]int32, 0, kept)
	for e, ed := range g.edges {
		if keep(e) {
			edges = append(edges, ed)
			eorig = append(eorig, int32(e))
		}
	}
	return &Sub{G: fromSortedEdges(g.N(), edges), EOrig: eorig}
}

// SpanningClasses splits g's edges by class[e] ∈ [0, k) into the spanning
// subgraphs of the k classes, with one counting pass over the edges. Entry
// c is nil when class c has no edges. Each class keeps the identifier
// order of its edges, hence (U, V) order, so no class is sorted; the
// classes share one edge arena and one EOrig arena of g.M() entries.
func SpanningClasses(g *Graph, class []int64, k int64) ([]*Sub, error) {
	if len(class) != g.M() {
		return nil, fmt.Errorf("graph: %d edge classes for %d edges", len(class), g.M())
	}
	start := make([]int, k+1)
	for e, c := range class {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("graph: edge %d in class %d outside [0,%d)", e, c, k)
		}
		start[c+1]++
	}
	for c := int64(1); c <= k; c++ {
		start[c] += start[c-1]
	}
	edges := make([]Edge, g.M())
	eorig := make([]int32, g.M())
	next := append([]int(nil), start[:k]...)
	for e, c := range class {
		edges[next[c]] = g.edges[e]
		eorig[next[c]] = int32(e)
		next[c]++
	}
	subs := make([]*Sub, k)
	for c := range subs {
		lo, hi := start[c], start[c+1]
		if lo < hi {
			subs[c] = &Sub{G: fromSortedEdges(g.N(), edges[lo:hi:hi]), EOrig: eorig[lo:hi:hi]}
		}
	}
	return subs, nil
}

// BuildWithEdgeOrder builds the graph and returns the permutation mapping
// each edge's insertion index (order of AddEdge calls) to its final edge
// identifier. Builder.Build assigns IDs in sorted-(U,V) order, so the
// permutation is recovered by sorting insertion indices by the same key.
// Exposed for the orientation connectors, which add edges out of (U, V)
// order and must track which original edge each derived edge represents.
func BuildWithEdgeOrder(b *Builder) (*Graph, []int32, error) {
	keys := make([]Edge, len(b.edges))
	copy(keys, b.edges)
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, c := keys[order[x]], keys[order[y]]
		if a.U != c.U {
			return a.U < c.U
		}
		return a.V < c.V
	})
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	perm := make([]int32, len(order))
	for finalID, insPos := range order {
		perm[insPos] = int32(finalID)
	}
	return g, perm, nil
}
