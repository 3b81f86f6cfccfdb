package baseline

import (
	"context"
	"fmt"

	"repro/internal/arbor"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/vc"
)

// BE08Result is the outcome of the [4]-style (2Δ−1)-edge-coloring.
type BE08Result struct {
	Colors  []int64
	Palette int64
	Stats   sim.Stats
	Parts   int
}

// BE08EdgeColor implements the arboricity-aware (2Δ−1)-edge-coloring in the
// spirit of Barenboim–Elkin [4] (cited in §1.4: "for graphs with arboricity
// a, the algorithm of [4] computes (2Δ−1)-edge-coloring within O(a+log n)
// time"): an H-partition orients the work, part-internal edges are colored
// in parallel with the black box, and crossing edges are colored stage by
// stage with the Lemma 5.1 procedure — all within the single palette
// 2Δ−1, which is always feasible because an edge has at most 2Δ−2
// neighbors. Our staged realization costs O(a·log n) rounds (the pipelined
// O(a+log n) schedule of [4] is not reproduced; the palette is exact).
func BE08EdgeColor(ctx context.Context, g *graph.Graph, a int, opt vc.Options) (*BE08Result, error) {
	if g.M() == 0 {
		return &BE08Result{Colors: make([]int64, 0), Palette: 1}, nil
	}
	delta := g.MaxDegree()
	palette := int64(2*delta - 1)
	theta := arbor.Threshold(a, 3)
	hp, err := arbor.HPartition(ctx, opt.Exec, g, theta)
	if err != nil {
		return nil, fmt.Errorf("baseline: be08: %w", err)
	}

	// Part-internal edges: vertex-disjoint subgraphs of degree ≤ θ, colored
	// together inside the low end of the global palette (2θ−1 ≤ 2Δ−1).
	internal := hp.Internal(g)
	ic, err := vc.EdgeColor(ctx, internal.G, nil, vc.EdgeIDBound(internal.G), opt)
	if err != nil {
		return nil, fmt.Errorf("baseline: be08 internal: %w", err)
	}
	colors := make([]int64, g.M())
	for e := range colors {
		colors[e] = -1
	}
	for e, orig := range internal.EOrig {
		colors[orig] = ic.Colors[e]
	}

	// Crossing stages share the same 2Δ−1 palette: a crossing edge sees at
	// most (θ−1)+(Δ−1) ≤ 2Δ−2 occupied colors, so a slot is always free.
	crossStats, err := arbor.ColorCrossing(ctx, opt.Exec, g, hp, colors, palette)
	if err != nil {
		return nil, fmt.Errorf("baseline: be08: %w", err)
	}
	return &BE08Result{Colors: colors, Palette: palette, Stats: hp.Stats.Seq(ic.Stats).Seq(crossStats), Parts: hp.NumParts}, nil
}
