// Package connector implements the paper's central device: structures that
// "connect vertices or edges in a certain way that reduces clique size"
// (§1.3). Three kinds are provided, matching Figures 1–3:
//
//   - Clique connectors (§2, Figure 1): every identified clique partitions
//     its vertices into groups of t; the connector keeps only within-group
//     edges, so its maximum degree drops to D·(t−1) (Lemma 2.1).
//   - Edge connectors (§4, Figure 2): every vertex splits into ⌈deg/t⌉
//     virtual vertices, each owning at most t incident edges; the connector
//     has the same edge set but maximum degree t.
//   - Orientation connectors (§5, Figure 3) and their bipartite variant
//     (Theorem 5.4): given an acyclic orientation, virtual vertices split
//     in-edges and out-edges into bounded groups, preserving acyclicity
//     while capping both the degree and the out-degree (hence arboricity).
//
// The virtual vertices of the edge and orientation connectors are laid out
// by owner (VirtualGraph.Base), and both emit their edges in (U, V) order,
// the edge connector as it reads each vertex's ports and the orientation
// connectors through one stable counting sort by the lower virtual, so no
// connector calls a comparison sort. The clique connector reads only its
// cover's clique lists, so a recursion hands each class the lists
// cliques.Split restricted to it. Classes, the class stage of every
// recursion, splits the graph by a connector coloring in one counting
// pass, edge classes and vertex classes alike, over the span of the
// classes it uses.
//
// Distributed-cost model: each connector is constructed with O(1) rounds of
// communication (cliques have diameter 1, so a master — the highest-ID
// clique member — can collect and announce a partition in 2 rounds; virtual
// vertices are defined locally and announced to neighbors in 1 round). Each
// construction function reports this cost. Virtual vertices are simulated by
// their owner, and every connector edge is carried by a base edge (or is
// internal to one owner), so one simulated round on a connector costs one
// round on the base network; see DESIGN.md §3's accounting convention.
package connector

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
)

// CliqueConstructRounds is the communication cost of building a clique
// connector: the master collects clique membership and announces groups.
const CliqueConstructRounds = 2

// VirtualConstructRounds is the communication cost of building an edge or
// orientation connector: each vertex announces, per incident edge, the
// virtual vertex it assigned that edge to.
const VirtualConstructRounds = 1

// CliqueConnector is the §2 structure: a spanning subgraph of G whose edges
// connect vertices in the same group of the same clique.
type CliqueConnector struct {
	// Sub embeds the connector as a spanning subgraph of the original graph.
	Sub *graph.Sub
	// T is the group-size parameter: the groups of a clique are the
	// consecutive runs of T of its sorted vertex list (the last may be
	// smaller).
	T int
	// Stats is the construction cost.
	Stats sim.Stats
}

// Clique builds the clique connector of g for the cliques of its cover,
// each listed in ascending order, with group parameter t ≥ 2. Group
// assignment is deterministic: each clique master cuts its sorted members
// into consecutive runs of t (matching the paper's "each clique Q
// partitions its vertex set into subsets of size t each").
func Clique(g *graph.Graph, cliques [][]int32, t int) (*CliqueConnector, error) {
	if t < 2 {
		return nil, fmt.Errorf("connector: clique parameter t=%d < 2", t)
	}
	// keep is indexed by edge identifier (resolved with the O(log deg)
	// EdgeID lookup as each within-group pair is generated) — one flat
	// bitmap instead of the packed-endpoint hash map this used to build per
	// recursion level.
	keep := make([]bool, g.M())
	for _, cl := range cliques {
		for lo := 0; lo < len(cl); lo += t {
			grp := cl[lo:min(lo+t, len(cl))]
			for i := 0; i < len(grp); i++ {
				for j := i + 1; j < len(grp); j++ {
					if e, ok := g.EdgeID(int(grp[i]), int(grp[j])); ok {
						keep[e] = true
					}
				}
			}
		}
	}
	return &CliqueConnector{
		Sub:   graph.SpanningSubgraph(g, func(e int) bool { return keep[e] }),
		T:     t,
		Stats: sim.Stats{Rounds: CliqueConstructRounds, Messages: 2 * int64(g.M())},
	}, nil
}

// MaxDegreeBound returns the Lemma 2.1 bound D·(t−1) for a cover of
// diversity d.
func (c *CliqueConnector) MaxDegreeBound(d int) int { return d * (c.T - 1) }

// VirtualGraph is a graph on virtual vertices, each owned by an original
// vertex, whose edges correspond 1:1 to (a subset of) the original edges.
type VirtualGraph struct {
	G *graph.Graph
	// Base lays the virtual vertices out by owner: original vertex v
	// simulates the virtuals [Base[v], Base[v+1]), so the owners' ranges
	// ascend with the owner.
	Base []int32
	// EOrig maps each connector edge to the original edge identifier.
	EOrig []int32
	// Stats is the construction cost.
	Stats sim.Stats
}

// Edge builds the §4 edge connector with group parameter t ≥ 1: vertex v
// becomes ⌈deg(v)/t⌉ virtual vertices, its incident edges assigned to them
// in runs of t following port order; edge {u,v} joins u's and v's virtual
// vertices owning it. The connector's maximum degree is at most t.
func Edge(g *graph.Graph, t int) (*VirtualGraph, error) {
	if t < 1 {
		return nil, fmt.Errorf("connector: edge parameter t=%d < 1", t)
	}
	n := g.N()
	// First virtual index of each vertex.
	base := make([]int32, n+1)
	for v := 0; v < n; v++ {
		base[v+1] = base[v] + int32(util.CeilDiv(g.Degree(v), t))
	}
	// Edge e joins the virtual of its port p at each endpoint, base + p/t;
	// at the far endpoint w, p is the offset of e's mate arc in w's range.
	// Taking each edge from its lower endpoint v, for v and its ports in
	// ascending order, yields the edges in (U, V) order: U ascends with v
	// and p, and at one U, V ascends with w, whose virtuals form disjoint
	// ranges that ascend with w.
	mates := g.Mates()
	edges := make([]graph.Edge, 0, g.M())
	eorig := make([]int32, 0, g.M())
	for v := 0; v < n; v++ {
		lo, _ := g.Range(v)
		for p, a := range g.Adj(v) {
			if int(a.To) < v {
				continue
			}
			wlo, _ := g.Range(int(a.To))
			q := int(mates[lo+p]) - wlo
			edges = append(edges, graph.Edge{U: base[v] + int32(p/t), V: base[a.To] + int32(q/t)})
			eorig = append(eorig, a.Edge)
		}
	}
	cg, err := graph.FromSortedEdges(int(base[n]), edges)
	if err != nil {
		return nil, fmt.Errorf("connector: edge: %w", err)
	}
	return &VirtualGraph{
		G:     cg,
		Base:  base,
		EOrig: eorig,
		Stats: sim.Stats{Rounds: VirtualConstructRounds, Messages: 2 * int64(g.M())},
	}, nil
}
