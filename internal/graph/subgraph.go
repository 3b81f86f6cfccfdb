package graph

import "fmt"

// Sub is a subgraph together with its embedding into a parent graph. It is
// the unit of recursion in the paper's decompositions: CD-Coloring recurses
// on vertex-induced color classes (InducedClasses), the star partition and
// the orientation connectors on spanning edge classes (SpanningClasses);
// both translate results back to the parent.
type Sub struct {
	G *Graph
	// VOrig maps a subgraph vertex to its parent vertex. nil means the
	// identity map (the subgraph is spanning: same vertex set).
	VOrig []int32
	// EOrig maps a subgraph edge to its parent edge identifier.
	EOrig []int32
}

// InducedClasses splits g's vertices by class[v] ∈ [0, k) into the
// subgraphs their classes induce. Its tables cover the span of the classes
// present, as SpanningClasses' do: entry i of subs is class first+i, nil
// when that class has no vertices. One counting pass over the vertices
// gives each vertex its rank in its class, which is its index in the class
// subgraph, so each class keeps g's vertex order. g's edges, taken in
// identifier order, then reach each class in (U, V) order, so no class is
// sorted. Every table the classes need, their graphs included, is one
// arena shared by all classes, so the split makes the same allocations
// however many classes there are.
func InducedClasses(g *Graph, class []int64, k int64) (subs []*Sub, first int64, err error) {
	if len(class) != g.N() {
		return nil, 0, fmt.Errorf("graph: %d vertex classes for %d vertices", len(class), g.N())
	}
	first, last, err := ClassSpan(class, k)
	if err != nil || last < first {
		return nil, 0, err
	}
	span := last - first + 1
	// vstart and estart count each class's vertices and internal edges one
	// slot ahead, then become the starts of its ranges in the arenas.
	rank := make([]int32, len(class))
	vstart := make([]int32, span+1)
	for v, c := range class {
		rank[v] = vstart[c-first+1]
		vstart[c-first+1]++
	}
	estart := make([]int, span+1)
	for _, e := range g.edges {
		if c := class[e.U]; c == class[e.V] {
			estart[c-first+1]++
		}
	}
	nonempty := 0
	for i := 1; i <= int(span); i++ {
		if vstart[i] > 0 {
			nonempty++
		}
		vstart[i] += vstart[i-1]
		estart[i] += estart[i-1]
	}
	vorig := make([]int32, len(class))
	for v, c := range class {
		vorig[vstart[c-first]+rank[v]] = int32(v)
	}
	m := estart[span]
	edges := make([]Edge, m)
	eorig := make([]int32, m)
	next := append([]int(nil), estart[:span]...)
	for id, e := range g.edges {
		if c := class[e.U] - first; c == class[e.V]-first {
			edges[next[c]] = Edge{U: rank[e.U], V: rank[e.V]}
			eorig[next[c]] = int32(id)
			next[c]++
		}
	}
	// The classes' graphs share one arena per table: a class of n vertices
	// and m edges takes n+1 offsets, one more than its vertices, and 2m arcs
	// and mates, twice its edges.
	arena := make([]Sub, nonempty)
	graphs := make([]Graph, nonempty)
	off := make([]int32, len(class)+nonempty)
	arcs := make([]Arc, 2*m)
	mate := make([]int32, 2*m)
	subs = make([]*Sub, span)
	j := 0
	for i := range subs {
		vlo, vhi := int(vstart[i]), int(vstart[i+1])
		if vlo == vhi {
			continue
		}
		elo, ehi := estart[i], estart[i+1]
		o := off[vlo+j : vhi+j+1 : vhi+j+1]
		graphs[j].place(vhi-vlo, edges[elo:ehi:ehi], o, arcs[2*elo:2*ehi:2*ehi], mate[2*elo:2*ehi:2*ehi])
		arena[j] = Sub{G: &graphs[j], VOrig: vorig[vlo:vhi:vhi], EOrig: eorig[elo:ehi:ehi]}
		subs[i] = &arena[j]
		j++
	}
	return subs, first, nil
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
