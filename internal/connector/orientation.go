package connector

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
)

// OrientedVirtualGraph is a VirtualGraph whose edges carry the inherited
// orientation from the base graph's acyclic orientation.
type OrientedVirtualGraph struct {
	VirtualGraph
	// Orient is the inherited orientation of the connector graph: edge
	// u→v of the base becomes tailVirtual(u)→headVirtual(v). It is acyclic
	// whenever the base orientation is.
	Orient *graph.Orientation
	// InSide marks, for the bipartite variant, the virtual vertices that
	// receive in-edges; nil for the shared-virtual (Figure 3) variant.
	InSide []bool
}

// Orientation builds the Figure-3 connector of Theorem 5.3. Every vertex v
// defines k virtual vertices v₁…v_k with k = max(#inGroups, #outGroups):
// incoming edges are split into groups of ≤ inGroup, the i-th group wired
// to vᵢ; outgoing edges into groups of ≤ outGroup, the i-th group wired to
// vᵢ. For Theorem 5.3, inGroup = ⌈Δ/⌈√Δ⌉⌉ and outGroup = ⌈√d⌉ where d is
// the orientation's out-degree bound; the connector then has maximum degree
// ≤ inGroup + outGroup and out-degree (hence arboricity) ≤ outGroup.
func Orientation(o *graph.Orientation, inGroup, outGroup int) (*OrientedVirtualGraph, error) {
	if inGroup < 1 || outGroup < 1 {
		return nil, fmt.Errorf("connector: orientation groups must be ≥ 1 (in=%d out=%d)", inGroup, outGroup)
	}
	return buildOriented(o, inGroup, outGroup, false)
}

// BipartiteOrientation builds the Theorem-5.4 connector: in-virtuals and
// out-virtuals are distinct vertices, so the connector is bipartite — every
// edge joins some tail's out-virtual to some head's in-virtual. One side has
// degree ≤ inGroup, the other ≤ outGroup.
func BipartiteOrientation(o *graph.Orientation, inGroup, outGroup int) (*OrientedVirtualGraph, error) {
	if inGroup < 1 || outGroup < 1 {
		return nil, fmt.Errorf("connector: orientation groups must be ≥ 1 (in=%d out=%d)", inGroup, outGroup)
	}
	return buildOriented(o, inGroup, outGroup, true)
}

// buildOriented lays out and wires both orientation connectors. One pass
// over each vertex's ports gives every arc its virtual vertex: the in-arcs
// and the out-arcs of v, each in port order, go in runs of inGroup and
// outGroup to v's virtuals, which in the bipartite variant are the
// in-virtuals followed by the out-virtuals. Ports list a vertex's edges
// in identifier order, so these are the groups that numbering the edges
// in identifier order at each endpoint gives.
//
// Each edge is then taken from its lower endpoint v, for v and its ports
// ascending, and joins the virtual of its arc at v, the lower one, to the
// virtual of its mate arc. The edges at one virtual of v arrive with
// ascending far owner, whose virtuals form one ascending range, so one
// stable counting sort by the lower virtual lists them in (U, V) order.
func buildOriented(o *graph.Orientation, inGroup, outGroup int, bipartite bool) (*OrientedVirtualGraph, error) {
	g := o.Graph()
	n := g.N()
	base := make([]int32, n+1)
	virt := make([]int32, g.NumArcs())
	for v := 0; v < n; v++ {
		lo, _ := g.Range(v)
		adj := g.Adj(v)
		in := 0
		for _, a := range adj {
			if o.Head(int(a.Edge)) == v {
				in++
			}
		}
		nIn, nOut := util.CeilDiv(in, inGroup), util.CeilDiv(len(adj)-in, outGroup)
		inFirst, outFirst := base[v], base[v]
		size := max(nIn, nOut, 1) // an isolated vertex keeps one virtual
		if bipartite {
			outFirst += int32(nIn)
			size = max(nIn+nOut, 1)
		}
		base[v+1] = base[v] + int32(size)
		in, out := 0, 0
		for p, a := range adj {
			if o.Head(int(a.Edge)) == v {
				virt[lo+p] = inFirst + int32(in/inGroup)
				in++
			} else {
				virt[lo+p] = outFirst + int32(out/outGroup)
				out++
			}
		}
	}
	nv := int(base[n])
	// at[u+1] counts the edges whose lower virtual is u; the prefix sums
	// then make at[u] u's placement cursor.
	at := make([]int32, nv+1)
	for v := 0; v < n; v++ {
		lo, _ := g.Range(v)
		for p, a := range g.Adj(v) {
			if int(a.To) > v {
				at[virt[lo+p]+1]++
			}
		}
	}
	for u := 1; u <= nv; u++ {
		at[u] += at[u-1]
	}
	mates := g.Mates()
	edges := make([]graph.Edge, g.M())
	eorig := make([]int32, g.M())
	heads := make([]int32, g.M())
	var inSide []bool
	if bipartite {
		inSide = make([]bool, nv)
	}
	for v := 0; v < n; v++ {
		lo, _ := g.Range(v)
		for p, a := range g.Adj(v) {
			if int(a.To) < v {
				continue
			}
			u, w := virt[lo+p], virt[mates[lo+p]]
			i := at[u]
			at[u]++
			edges[i] = graph.Edge{U: u, V: w}
			eorig[i] = a.Edge
			heads[i] = w
			if o.Head(int(a.Edge)) == v {
				heads[i] = u
			}
			if bipartite {
				inSide[heads[i]] = true // every in-virtual heads an edge
			}
		}
	}
	cg, err := graph.FromSortedEdges(nv, edges)
	if err != nil {
		return nil, fmt.Errorf("connector: orientation: %w", err)
	}
	orient, err := graph.NewOrientation(cg, heads)
	if err != nil {
		return nil, fmt.Errorf("connector: orientation: %w", err)
	}
	return &OrientedVirtualGraph{
		VirtualGraph: VirtualGraph{
			G:     cg,
			Base:  base,
			EOrig: eorig,
			Stats: sim.Stats{Rounds: VirtualConstructRounds, Messages: 2 * int64(g.M())},
		},
		Orient: orient,
		InSide: inSide,
	}, nil
}
