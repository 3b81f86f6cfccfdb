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

func buildOriented(o *graph.Orientation, inGroup, outGroup int, bipartite bool) (*OrientedVirtualGraph, error) {
	g := o.Graph()
	n := g.N()
	inDeg := make([]int, n)
	outDeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, a := range g.Adj(v) {
			if o.Head(int(a.Edge)) == v {
				inDeg[v]++
			} else {
				outDeg[v]++
			}
		}
	}
	// Virtual vertex layout. Shared variant: max(#in, #out) virtuals per
	// vertex; bipartite: #in in-virtuals followed by #out out-virtuals.
	base := make([]int32, n+1)
	inCount := make([]int32, n)
	for v := 0; v < n; v++ {
		nIn := util.CeilDiv(inDeg[v], inGroup)
		nOut := util.CeilDiv(outDeg[v], outGroup)
		var total int
		if bipartite {
			total = nIn + nOut
			inCount[v] = int32(nIn)
		} else {
			total = max(nIn, nOut)
		}
		if total == 0 {
			total = 1 // isolated vertices keep one virtual for simplicity
		}
		base[v+1] = base[v] + int32(total)
	}
	nv := int(base[n])
	owner := make([]int32, nv)
	index := make([]int32, nv)
	var inSide []bool
	if bipartite {
		inSide = make([]bool, nv)
	}
	for v := 0; v < n; v++ {
		for i := base[v]; i < base[v+1]; i++ {
			owner[i] = int32(v)
			index[i] = i - base[v]
			if bipartite && index[i] < inCount[v] {
				inSide[i] = true
			}
		}
	}
	// Per-vertex running counters assign each in-edge and out-edge, in port
	// order, to its group. In the bipartite variant out-virtuals start after
	// the in-virtuals.
	inSeen := make([]int, n)
	outSeen := make([]int, n)
	inVirt := func(v int) int {
		grp := inSeen[v] / inGroup
		inSeen[v]++
		return int(base[v]) + grp
	}
	outVirt := func(v int) int {
		grp := outSeen[v] / outGroup
		outSeen[v]++
		if bipartite {
			return int(base[v]) + int(inCount[v]) + grp
		}
		return int(base[v]) + grp
	}
	b := graph.NewBuilder(nv)
	eorig := make([]int32, 0, g.M())
	heads := make([]int32, 0, g.M())
	// Iterate edges in identifier order so group assignment is
	// deterministic (each endpoint processes its incident edges in a fixed
	// local order; identifier order is one such order).
	for e := 0; e < g.M(); e++ {
		head := o.Head(e)
		tail := o.Tail(e)
		hv := inVirt(head)
		tv := outVirt(tail)
		if hv == tv {
			// Impossible: head ≠ tail and virtuals have distinct owners.
			return nil, fmt.Errorf("connector: internal: virtual self-loop on edge %d", e)
		}
		b.AddEdge(tv, hv)
		eorig = append(eorig, int32(e))
		heads = append(heads, int32(hv))
	}
	cg, perm, err := graph.BuildWithEdgeOrder(b)
	if err != nil {
		return nil, fmt.Errorf("connector: orientation: %w", err)
	}
	headByFinal := make([]int32, len(heads))
	for ins, h := range heads {
		headByFinal[perm[ins]] = h
	}
	orient, err := graph.NewOrientation(cg, headByFinal)
	if err != nil {
		return nil, fmt.Errorf("connector: orientation: %w", err)
	}
	return &OrientedVirtualGraph{
		VirtualGraph: VirtualGraph{
			G:     cg,
			Owner: owner,
			Index: index,
			EOrig: applyPerm(eorig, perm),
			Stats: sim.Stats{Rounds: VirtualConstructRounds, Messages: 2 * int64(g.M())},
		},
		Orient: orient,
		InSide: inSide,
	}, nil
}

// applyPerm reindexes an insertion-ordered slice by the permutation
// graph.BuildWithEdgeOrder returns.
func applyPerm(eorig []int32, perm []int32) []int32 {
	out := make([]int32, len(eorig))
	for ins, orig := range eorig {
		out[perm[ins]] = orig
	}
	return out
}
