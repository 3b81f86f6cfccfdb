package graph

import "fmt"

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
// subgraphs of their classes, with one counting pass over the edges. Its
// tables cover only the span of the classes present, [first, last], so a
// coloring from a huge declared palette costs what its edges use: entry i
// of subs is class first+i, nil when that class has no edges, and a graph
// without edges has no entries. Each class keeps the identifier order of
// its edges, hence (U, V) order, so no class is sorted; the classes share
// one edge arena and one EOrig arena of g.M() entries.
func SpanningClasses(g *Graph, class []int64, k int64) (subs []*Sub, first int64, err error) {
	if len(class) != g.M() {
		return nil, 0, fmt.Errorf("graph: %d edge classes for %d edges", len(class), g.M())
	}
	first, last, err := ClassSpan(class, k)
	if err != nil || last < first {
		return nil, 0, err
	}
	start := make([]int, last-first+2)
	for _, c := range class {
		start[c-first+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	edges := make([]Edge, g.M())
	eorig := make([]int32, g.M())
	next := append([]int(nil), start[:len(start)-1]...)
	for e, c := range class {
		i := next[c-first]
		edges[i] = g.edges[e]
		eorig[i] = int32(e)
		next[c-first]++
	}
	subs = make([]*Sub, len(start)-1)
	for i := range subs {
		lo, hi := start[i], start[i+1]
		if lo < hi {
			subs[i] = &Sub{G: fromSortedEdges(g.N(), edges[lo:hi:hi]), EOrig: eorig[lo:hi:hi]}
		}
	}
	return subs, first, nil
}

// ClassSpan returns the smallest and the largest entry of class, each of
// which must lie in [0, k); last < first when class is empty.
func ClassSpan(class []int64, k int64) (first, last int64, err error) {
	first, last = k, -1
	for i, c := range class {
		if c < 0 || c >= k {
			return 0, 0, fmt.Errorf("graph: element %d in class %d outside [0,%d)", i, c, k)
		}
		first, last = min(first, c), max(last, c)
	}
	return first, last, nil
}
