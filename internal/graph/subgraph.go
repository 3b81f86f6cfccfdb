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

// InducedSubgraph returns the subgraph of g induced by the given vertices
// (which must be distinct). Vertex i of the result corresponds to
// vertices[i] in g. The vertex translation runs over a pooled DenseIndex,
// so recursion levels (CD-Coloring extracts one subgraph per color class
// per level) reuse index space instead of rebuilding a map each time.
func InducedSubgraph(g *Graph, vertices []int) (*Sub, error) {
	idx := AcquireDenseIndex(g.N())
	defer idx.Release()
	vorig := make([]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("graph: induced vertex %d out of range", v)
		}
		if idx.Has(v) {
			return nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		idx.Put(v, int32(i))
		vorig[i] = int32(v)
	}
	b := NewBuilder(len(vertices))
	var eorig []int32
	for i, v := range vertices {
		for _, a := range g.Adj(v) {
			j, ok := idx.Get(int(a.To))
			if !ok {
				continue
			}
			lo, hi := int32(i), j
			if lo > hi {
				lo, hi = hi, lo
			}
			if int32(i) != lo {
				continue // keep each edge once, from its lower new index
			}
			b.AddEdge(int(lo), int(hi))
			eorig = append(eorig, a.Edge)
		}
	}
	sg, perm, err := BuildWithEdgeOrder(b)
	if err != nil {
		return nil, err
	}
	return &Sub{G: sg, VOrig: vorig, EOrig: applyPerm(eorig, perm)}, nil
}

// SpanningSubgraph returns the subgraph of g on the full vertex set
// containing exactly the edges for which keep reports true.
func SpanningSubgraph(g *Graph, keep func(e int) bool) (*Sub, error) {
	kept := 0
	for e := 0; e < g.M(); e++ {
		if keep(e) {
			kept++
		}
	}
	b := NewBuilder(g.N())
	b.Grow(kept)
	eorig := make([]int32, 0, kept)
	for e := 0; e < g.M(); e++ {
		if keep(e) {
			u, v := g.Endpoints(e)
			b.AddEdge(u, v)
			eorig = append(eorig, int32(e))
		}
	}
	sg, perm, err := BuildWithEdgeOrder(b)
	if err != nil {
		return nil, err
	}
	return &Sub{G: sg, EOrig: applyPerm(eorig, perm)}, nil
}

// SpanningFromEdges is SpanningSubgraph for an explicit edge-ID list.
func SpanningFromEdges(g *Graph, edges []int) (*Sub, error) {
	in := make([]bool, g.M())
	for _, e := range edges {
		if e < 0 || e >= g.M() {
			return nil, fmt.Errorf("graph: edge %d out of range", e)
		}
		in[e] = true
	}
	return SpanningSubgraph(g, func(e int) bool { return in[e] })
}

// BuildWithEdgeOrder builds the graph and returns the permutation mapping
// each edge's insertion index (order of AddEdge calls) to its final edge
// identifier. Builder.Build assigns IDs in sorted-(U,V) order, so the
// permutation is recovered by sorting insertion indices by the same key.
// Exposed for packages (connector) that construct derived graphs and must
// track which original edge each derived edge represents.
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

// applyPerm reindexes an insertion-ordered slice by the edge permutation.
func applyPerm(eorig []int32, perm []int32) []int32 {
	if eorig == nil {
		return nil
	}
	out := make([]int32, len(eorig))
	for ins, orig := range eorig {
		out[perm[ins]] = orig
	}
	return out
}
