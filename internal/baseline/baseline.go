// Package baseline implements the comparison algorithms for the paper's
// Tables 1 and 2 and the classical references discussed in §1.4:
//
//   - GreedyVertex / GreedyEdge: centralized sequential greedy colorings.
//     They provide the (Δ+1) / (2Δ−1) palette reference points and a color
//     floor for judging the distributed algorithms' palettes; they execute
//     in zero rounds (they are not distributed algorithms).
//   - TwoDeltaMinusOne: the classical distributed (2Δ−1)-edge-coloring
//     (Linial + reduction on the line graph) — the folklore baseline the
//     paper's edge-coloring results undercut on palette size.
//   - BE08EdgeColor: the arboricity-aware (2Δ−1)-edge-coloring of
//     Barenboim–Elkin [4], run on Theorem 5.2's skeleton (arbor.ColorParts)
//     with the one palette 2Δ−1 for internal and crossing edges alike.
//   - BE11: the previous-best trade-off of Barenboim–Elkin [7] + [17] from
//     the right-hand columns of Tables 1 and 2, emulated with the connector
//     machinery using [7]'s less balanced parameter profile
//     t = Δ^{1/(x+2)}: it spends (2^{x+1}+ε)Δ colors and leaves final
//     stars of size ≈ Δ^{2/(x+2)} for the black box, versus Δ^{1/(x+1)}
//     for the paper's algorithm (see DESIGN.md §1.5 for the substitution
//     rationale).
package baseline

import (
	"context"
	"fmt"

	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/graph"
	"repro/internal/star"
	"repro/internal/util"
	"repro/internal/vc"
)

// GreedyVertex colors vertices sequentially in index order with the
// smallest free color. Palette ≤ Δ+1.
func GreedyVertex(g *graph.Graph) []int64 {
	colors := make([]int64, g.N())
	for i := range colors {
		colors[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		used := make(map[int64]bool, g.Degree(v))
		for _, a := range g.Adj(v) {
			if colors[a.To] >= 0 {
				used[colors[a.To]] = true
			}
		}
		var c int64
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// GreedyEdge colors edges sequentially in identifier order with the
// smallest free color. Palette ≤ 2Δ−1.
func GreedyEdge(g *graph.Graph) []int64 {
	colors := make([]int64, g.M())
	for i := range colors {
		colors[i] = -1
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		used := make(map[int64]bool, g.Degree(u)+g.Degree(v))
		for _, a := range g.Adj(u) {
			if colors[a.Edge] >= 0 {
				used[colors[a.Edge]] = true
			}
		}
		for _, a := range g.Adj(v) {
			if colors[a.Edge] >= 0 {
				used[colors[a.Edge]] = true
			}
		}
		var c int64
		for used[c] {
			c++
		}
		colors[e] = c
	}
	return colors
}

// TwoDeltaMinusOne is the classical distributed (2Δ−1)-edge-coloring.
func TwoDeltaMinusOne(ctx context.Context, g *graph.Graph, opt vc.Options) (*vc.Result, error) {
	return vc.EdgeColor(ctx, g, nil, vc.EdgeIDBound(g), opt)
}

// BE11Palette is the emulated [7]+[17] color bound (2^{x+1}+ε)Δ with the
// slack the emulation actually needs (ε ≤ 1).
func BE11Palette(delta, x int) int64 {
	return int64(util.IPow(2, x+1)+1) * int64(delta)
}

// BE11T returns [7]'s parameter profile t = ⌊Δ^{1/(x+2)}⌋ (≥ 2).
func BE11T(delta, x int) (int, error) {
	if delta < 2 {
		return 0, fmt.Errorf("baseline: Δ=%d too small", delta)
	}
	t := util.IRoot(delta, x+2)
	if t < 2 {
		return 0, fmt.Errorf("baseline: x=%d too large for Δ=%d", x, delta)
	}
	return t, nil
}

// BE11EdgeColor runs the emulated previous-best (2^{x+1}+ε)Δ-edge-coloring:
// x star-partition levels with the coarser t = Δ^{1/(x+2)}, which leaves
// the black box final stars of size ≈ Δ^{2/(x+2)}.
func BE11EdgeColor(ctx context.Context, g *graph.Graph, x int, opt star.Options) (*star.Result, error) {
	t, err := BE11T(g.MaxDegree(), x)
	if err != nil {
		return nil, err
	}
	opt.SkipTrim = true // the ε-slack palette is the declared one
	res, err := star.EdgeColor(ctx, g, t, x, opt)
	if err != nil {
		return nil, err
	}
	if bound := BE11Palette(g.MaxDegree(), x); res.Declared > bound {
		return nil, fmt.Errorf("baseline: emulation palette %d exceeded (2^{x+1}+1)Δ = %d", res.Declared, bound)
	}
	return res, nil
}

// BE11VertexColor runs the emulated previous-best (D^{x+1}+ε)Δ-vertex-
// coloring on a bounded-diversity graph: CD-Coloring with the coarser
// parameter profile t = S^{1/(x+2)}.
func BE11VertexColor(ctx context.Context, g *graph.Graph, cover *cliques.Cover, x int, opt cd.Options) (*cd.Result, error) {
	s := cover.MaxCliqueSize()
	t := max(2, util.IRoot(s, x+2))
	opt.SkipTrim = true
	return cd.Color(ctx, g, cover, t, x, opt)
}
