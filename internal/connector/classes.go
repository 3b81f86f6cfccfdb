package connector

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// ClassKind says what a connector coloring colors, and so how its classes
// are carved out of the graph.
type ClassKind int

const (
	// EdgeClasses: φ is indexed by edge, and each class is the spanning
	// subgraph of its edges (the star partition, the orientation
	// connectors).
	EdgeClasses ClassKind = iota
	// VertexClasses: φ is indexed by vertex, and each class is the
	// subgraph its vertices induce (CD-Coloring, the clique
	// decomposition).
	VertexClasses
)

// ClassFunc colors one class. c is the class's connector color and sub its
// subgraph with the embedding into the parent graph. It returns ψ, indexed
// by sub's edges or vertices, within the palette the caller reserved for
// every class, and the cost of coloring the class.
type ClassFunc func(c int64, sub *graph.Sub) ([]int64, sim.Stats, error)

// Classes is the class stage of the paper's recursions: Algorithm 1's
// lines 5–8, Theorem 4.1's star partition, and the orientation connectors
// of Theorems 5.3 and 5.4. It splits g into every class of the connector
// coloring φ ∈ [0, k) at once, by one counting pass (graph.SpanningClasses
// or graph.InducedClasses), colors every nonempty class with color in class
// order, and gives each element the color φ·P′+ψ, where P′ = subPalette
// bounds every class's ψ. The paper runs the classes in parallel, so their
// costs fold with sim.ParAll; the caller adds the connector's cost in
// sequence. This is the one place classes compose.
func Classes(g *graph.Graph, kind ClassKind, phi []int64, k, subPalette int64, color ClassFunc) ([]int64, sim.Stats, error) {
	var (
		subs  []*graph.Sub
		first int64
		err   error
	)
	if kind == EdgeClasses {
		subs, first, err = graph.SpanningClasses(g, phi, k)
	} else {
		subs, first, err = graph.InducedClasses(g, phi, k)
	}
	if err != nil {
		return nil, sim.Stats{}, err
	}
	colors := make([]int64, len(phi))
	classStats := make([]sim.Stats, 0, len(subs))
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		c := first + int64(i)
		psi, st, err := color(c, sub)
		if err != nil {
			return nil, sim.Stats{}, err
		}
		classStats = append(classStats, st)
		orig := sub.EOrig
		if kind == VertexClasses {
			orig = sub.VOrig
		}
		for j, o := range orig {
			colors[o] = c*subPalette + psi[j]
		}
	}
	return colors, sim.ParAll(classStats), nil
}

// BaseColors re-indexes a coloring of the connector's edges by the base
// edges they stand for (EOrig). The edge and orientation connectors carry
// every base edge exactly once.
func (vg *VirtualGraph) BaseColors(colors []int64) []int64 {
	base := make([]int64, len(vg.EOrig))
	for ce, e := range vg.EOrig {
		base[e] = colors[ce]
	}
	return base
}
