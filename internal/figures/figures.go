// Package figures regenerates the paper's three figures as Graphviz DOT
// plus a one-line structural summary. cmd/colorviz is a thin wrapper over
// this package; keeping the rendering here makes the figures testable
// (golden tests assert both the DOT structure and the summarized
// invariants).
package figures

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/cliques"
	"repro/internal/connector"
	"repro/internal/graph"
)

// Result is one rendered figure.
type Result struct {
	// DOT is the Graphviz source reproducing the figure's structure.
	DOT string
	// Summary states the structural invariants with their measured values.
	Summary string
}

// Figure renders figure number 1, 2 or 3.
func Figure(n int) (*Result, error) {
	switch n {
	case 1:
		return figure1()
	case 2:
		return figure2()
	case 3:
		return figure3()
	default:
		return nil, fmt.Errorf("figures: unknown figure %d", n)
	}
}

// figure1 reproduces Figure 1: a connector with t=4 of a pair of 7-cliques
// Q, R sharing a vertex v.
func figure1() (*Result, error) {
	b := graph.NewBuilder(13)
	q := []int32{0, 1, 2, 3, 4, 5, 6}
	r := []int32{0, 7, 8, 9, 10, 11, 12}
	for _, cl := range [][]int32{q, r} {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				b.AddEdge(int(cl[i]), int(cl[j]))
			}
		}
	}
	g := b.MustBuild()
	cov, err := cliques.NewCover(g, [][]int32{q, r})
	if err != nil {
		return nil, err
	}
	cc, err := connector.Clique(g, cov.Cliques, 4)
	if err != nil {
		return nil, err
	}
	labels := make([]string, g.N())
	for qi, cl := range cov.Cliques {
		// The groups of a clique are the runs of t of its sorted members.
		for lo := 0; lo < len(cl); lo += cc.T {
			for _, v := range cl[lo:min(lo+cc.T, len(cl))] {
				tag := fmt.Sprintf("%s%d", []string{"Q", "R"}[qi], lo/cc.T+1)
				if labels[v] != "" {
					// The shared vertex belongs to a group of each clique.
					labels[v] += "+" + tag
				} else {
					labels[v] = tag
				}
			}
		}
	}
	labels[0] = "v " + labels[0]
	var buf bytes.Buffer
	if err := graph.WriteDOT(&buf, cc.Sub.G, "figure1_clique_connector", labels); err != nil {
		return nil, err
	}
	return &Result{
		DOT: buf.String(),
		Summary: fmt.Sprintf(
			"Figure 1: two 7-cliques sharing v; t=4 ⇒ groups of ≤4; connector degree %d ≤ D(t−1)=%d; edges kept %d of %d",
			cc.Sub.G.MaxDegree(), cov.Diversity()*3, cc.Sub.G.M(), g.M()),
	}, nil
}

// figure2 reproduces Figure 2: the edge connector with t=3 around a vertex
// of degree 7.
func figure2() (*Result, error) {
	g := graph.Star(8)
	vg, err := connector.Edge(g, 3)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := graph.WriteDOT(&buf, vg.G, "figure2_edge_connector", virtualLabels(vg)); err != nil {
		return nil, err
	}
	return &Result{
		DOT: buf.String(),
		Summary: fmt.Sprintf(
			"Figure 2: degree-7 vertex splits into ⌈7/3⌉=3 virtual vertices; connector max degree %d ≤ t=3; edges preserved %d=%d",
			vg.G.MaxDegree(), vg.G.M(), g.M()),
	}, nil
}

// figure3 reproduces Figure 3: the orientation connector of a vertex with
// 9 incoming and 4 outgoing edges, in-groups of 3 and out-groups of 2.
func figure3() (*Result, error) {
	b := graph.NewBuilder(14)
	for i := 1; i <= 13; i++ {
		b.AddEdge(0, i)
	}
	g := b.MustBuild()
	heads := make([]int32, g.M())
	for e := 0; e < g.M(); e++ {
		_, v := g.Endpoints(e)
		if v <= 9 {
			heads[e] = 0 // nine in-edges of the center
		} else {
			heads[e] = int32(v) // four out-edges
		}
	}
	o, err := graph.NewOrientation(g, heads)
	if err != nil {
		return nil, err
	}
	vg, err := connector.Orientation(o, 3, 2)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, `digraph "figure3_orientation_connector" {`)
	for v, label := range virtualLabels(&vg.VirtualGraph) {
		fmt.Fprintf(&buf, "  %d [label=%s];\n", v, strconv.Quote(label))
	}
	for e := 0; e < vg.G.M(); e++ {
		fmt.Fprintf(&buf, "  %d -> %d;\n", vg.Orient.Tail(e), vg.Orient.Head(e))
	}
	fmt.Fprintln(&buf, "}")
	centerVirts := vg.Base[1] - vg.Base[0]
	return &Result{
		DOT: buf.String(),
		Summary: fmt.Sprintf(
			"Figure 3: center with 9 in / 4 out edges; in-groups of 3, out-groups of 2 ⇒ %d virtuals; acyclic: %v; max out-degree %d ≤ 2",
			centerVirts, vg.Orient.IsAcyclic(), vg.Orient.MaxOutDegree()),
	}, nil
}

// virtualLabels names the i-th virtual vertex of owner v "v<v>_<i>",
// counting i from 1.
func virtualLabels(vg *connector.VirtualGraph) []string {
	labels := make([]string, vg.G.N())
	for v := 0; v+1 < len(vg.Base); v++ {
		for i := vg.Base[v]; i < vg.Base[v+1]; i++ {
			labels[i] = fmt.Sprintf("v%d_%d", v, i-vg.Base[v]+1)
		}
	}
	return labels
}
