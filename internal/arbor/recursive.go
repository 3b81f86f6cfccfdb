package arbor

import (
	"context"
	"fmt"

	"repro/internal/connector"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
)

// Groups54 returns the Theorem 5.4 group sizes ⌈Δ^{1/x}⌉+1 and ⌈θ^{1/x}⌉+1.
func Groups54(delta, theta, x int) (inGroup, outGroup int) {
	return util.CeilRoot(delta, x) + 1, util.CeilRoot(theta, x) + 1
}

// Palette54 is the declared palette of ColorRecursive: the product of the
// per-level bipartite-connector palettes (inGroup+outGroup−1 each) and the
// Theorem 5.2 palette of the final classes. It saturates at
// math.MaxInt64, which ColorRecursive refuses as an overflow.
func Palette54(delta, a int, q float64, x int) int64 {
	theta := Threshold(a, q)
	inG, outG := Groups54(delta, theta, x)
	return palette54Rec(delta, theta, inG, outG, x, q)
}

func palette54Rec(dDelta, dTheta, inG, outG, lvl int, q float64) int64 {
	if lvl <= 1 {
		return Palette52(dDelta, max(1, dTheta), q)
	}
	next := int64(inG + outG - 1)
	return util.MulSat(next, palette54Rec(nextDelta(dDelta, dTheta, inG, outG), util.CeilDiv(dTheta, outG), inG, outG, lvl-1, q))
}

func nextDelta(dDelta, dTheta, inG, outG int) int {
	return util.CeilDiv(dDelta, inG) + util.CeilDiv(dTheta, outG)
}

// ColorRecursive implements Theorem 5.4: x−1 levels of bipartite
// orientation connectors — each colored with the Lemma 5.1 procedure in
// O(θ^{1/x}) rounds — followed by Theorem 5.2 on the final classes, for a
// total of ≈ (Δ^{1/x} + (q·a)^{1/x} + 3)^x colors.
func ColorRecursive(ctx context.Context, g *graph.Graph, a, x int, opt Options) (*Result, error) {
	if x < 1 {
		return nil, fmt.Errorf("arbor: recursion depth x=%d < 1", x)
	}
	if g.M() == 0 {
		return &Result{Colors: make([]int64, 0), Palette: 1}, nil
	}
	if x == 1 {
		return ColorHPartition(ctx, g, a, opt)
	}
	q := opt.q()
	theta := Threshold(a, q)
	delta, err := opt.delta(g)
	if err != nil {
		return nil, err
	}
	inG, outG := Groups54(delta, theta, x)
	palette := palette54Rec(delta, theta, inG, outG, x, q)
	if err := checkPalette(palette, delta, theta, x); err != nil {
		return nil, err
	}
	hp, err := HPartition(ctx, opt.Exec, g, theta)
	if err != nil {
		return nil, err
	}
	colors, stats, err := rec54(ctx, g, hp.Orient, delta, theta, inG, outG, x, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Colors: colors, Palette: palette, Stats: hp.Stats.Seq(stats), Parts: hp.NumParts}, nil
}

// rec54 colors the current level's subgraph. dDelta and dTheta are the
// declared degree and out-degree bounds (actuals never exceed them).
func rec54(ctx context.Context, g *graph.Graph, orient *graph.Orientation, dDelta, dTheta, inG, outG, lvl int, opt Options) ([]int64, sim.Stats, error) {
	q := opt.q()
	if g.M() == 0 {
		return make([]int64, 0), sim.Stats{}, nil
	}
	if lvl == 1 {
		res, err := ColorHPartition(ctx, g, max(1, dTheta), opt.declared(dDelta))
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("arbor: final classes: %w", err)
		}
		return res.Colors, res.Stats, nil
	}

	vg, err := connector.BipartiteOrientation(orient, inG, outG)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	stats := vg.Stats
	// Color the bipartite connector with the Lemma 5.1 procedure: A = the
	// out-virtual side (degree ≤ outG), B = the in-virtual side (degree ≤
	// inG); palette inG+outG−1 always suffices.
	roleA := make([]bool, vg.G.N())
	roleB := make([]bool, vg.G.N())
	for v := 0; v < vg.G.N(); v++ {
		if vg.InSide[v] {
			roleB[v] = true
		} else {
			roleA[v] = true
		}
	}
	connColors := make([]int64, vg.G.M())
	for e := range connColors {
		connColors[e] = -1
	}
	connPal := int64(inG + outG - 1)
	mr, err := Merge(ctx, opt.Exec, MergeSpec{
		G:          vg.G,
		RoleA:      roleA,
		RoleB:      roleB,
		EdgeColors: connColors,
		D:          outG,
		Palette:    connPal,
	})
	if err != nil {
		return nil, sim.Stats{}, fmt.Errorf("arbor: level %d connector: %w", lvl, err)
	}
	stats = stats.Seq(mr.Stats)

	// Split into classes and recurse.
	dDeltaNext := nextDelta(dDelta, dTheta, inG, outG)
	dThetaNext := util.CeilDiv(dTheta, outG)
	subPal := palette54Rec(dDeltaNext, dThetaNext, inG, outG, lvl-1, q)
	colors, classStats, err := connector.Classes(g, connector.EdgeClasses, vg.BaseColors(connColors), connPal, subPal,
		func(_ int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
			if sub.G.MaxDegree() > dDeltaNext {
				return nil, sim.Stats{}, fmt.Errorf("arbor: internal: level-%d class degree %d exceeds declared %d", lvl, sub.G.MaxDegree(), dDeltaNext)
			}
			subOrient, orientErr := RestrictOrientation(orient, sub)
			if orientErr != nil {
				return nil, sim.Stats{}, orientErr
			}
			return rec54(ctx, sub.G, subOrient, dDeltaNext, dThetaNext, inG, outG, lvl-1, opt)
		})
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return colors, stats.Seq(classStats), nil
}
