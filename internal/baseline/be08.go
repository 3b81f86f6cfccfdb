package baseline

import (
	"context"
	"fmt"

	"repro/internal/arbor"
	"repro/internal/graph"
	"repro/internal/vc"
)

// BE08EdgeColor implements the arboricity-aware (2Δ−1)-edge-coloring in the
// spirit of Barenboim–Elkin [4] (cited in §1.4: "for graphs with arboricity
// a, the algorithm of [4] computes (2Δ−1)-edge-coloring within O(a+log n)
// time") on Theorem 5.2's skeleton, arbor.ColorParts: an H-partition
// orients the work, part-internal edges are colored in parallel with the
// black box, and crossing edges are colored stage by stage with the Lemma
// 5.1 procedure — all within the single palette 2Δ−1. The internal edges
// take the low end of it (2θ−1 ≤ 2Δ−1), and a crossing edge sees at most
// (θ−1)+(Δ−1) ≤ 2Δ−2 occupied colors, so a slot is always free. Our staged
// realization costs O(a·log n) rounds (the pipelined O(a+log n) schedule
// of [4] is not reproduced; the palette is exact).
func BE08EdgeColor(ctx context.Context, g *graph.Graph, a int, opt vc.Options) (*arbor.Result, error) {
	if g.M() == 0 {
		return &arbor.Result{Colors: make([]int64, 0), Palette: 1}, nil
	}
	palette := int64(2*g.MaxDegree() - 1)
	res, err := arbor.ColorParts(ctx, g, arbor.Threshold(a, 3), 0, palette, arbor.Options{Exec: opt.Exec, VC: opt})
	if err != nil {
		return nil, fmt.Errorf("baseline: be08: %w", err)
	}
	res.Palette = palette
	return res, nil
}
