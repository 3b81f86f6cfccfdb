package arbor

import (
	"context"
	"fmt"
	"math"

	"repro/internal/connector"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
	"repro/internal/vc"
)

// Options configures the Section 5 algorithms. Part-internal edges are
// always colored with the (2θ−1) black box, as Theorem 5.2 does.
type Options struct {
	// Exec selects the simulator engine.
	Exec sim.Exec
	// VC configures the coloring black box used for part-internal edges.
	VC vc.Options
	// Q is the H-partition threshold multiplier (θ = ⌈q·a⌉); values above 2
	// guarantee logarithmically many parts (the paper's 2+ε). Default 3;
	// values below 2.05 are clamped up to keep the peeling fast.
	Q float64
	// declaredDelta, when positive, overrides the maximum-degree bound used
	// for palette sizing, so that parallel invocations on sibling subgraphs
	// share identical palettes. It must be ≥ the graph's actual Δ; only
	// declared sets it.
	declaredDelta int
}

func (o Options) q() float64 {
	if o.Q == 0 {
		return 3
	}
	if o.Q < 2.05 {
		return 2.05
	}
	return o.Q
}

// declared returns the options a recursion colors a subgraph with: the
// same engines and q under the declared degree bound delta.
func (o Options) declared(delta int) Options {
	return Options{Exec: o.Exec, VC: o.VC, Q: o.Q, declaredDelta: delta}
}

// delta returns the maximum-degree bound palettes are sized from: g's Δ,
// or declaredDelta when set, which must not be below it.
func (o Options) delta(g *graph.Graph) (int, error) {
	delta := g.MaxDegree()
	if o.declaredDelta > 0 {
		if o.declaredDelta < delta {
			return 0, fmt.Errorf("arbor: declared Δ=%d below actual %d", o.declaredDelta, delta)
		}
		delta = o.declaredDelta
	}
	return delta, nil
}

// Result is an edge coloring produced by one of the Section 5 algorithms.
type Result struct {
	// Colors is indexed by edge identifier.
	Colors []int64
	// Palette is the guaranteed palette bound.
	Palette int64
	Stats   sim.Stats
	// Parts is ℓ of the top-level H-partition (0 when none was needed).
	Parts int
}

// Palette52 is the declared palette of ColorHPartition for a graph with
// maximum degree delta and arboricity bound a at multiplier q:
// (Δ + θ − 1) crossing colors plus (2θ − 1) part-internal colors.
func Palette52(delta, a int, q float64) int64 {
	theta := Threshold(a, q)
	return int64(delta) + int64(theta) - 1 + int64(2*theta-1)
}

// ColorHPartition implements Theorem 5.2: a (Δ + O(a))-edge-coloring in
// O(a·log n) rounds. ColorParts colors the crossing edges in
// [0, Δ+θ−1) and the part-internal edges in the (2θ−1)-color block above.
func ColorHPartition(ctx context.Context, g *graph.Graph, a int, opt Options) (*Result, error) {
	if g.M() == 0 {
		return &Result{Colors: make([]int64, 0), Palette: 1}, nil
	}
	theta := Threshold(a, opt.q())
	delta, err := opt.delta(g)
	if err != nil {
		return nil, err
	}
	crossPal := int64(delta + theta - 1)
	res, err := ColorParts(ctx, g, theta, crossPal, crossPal, opt)
	if err != nil {
		return nil, err
	}
	res.Palette = crossPal + int64(2*theta-1)
	return res, nil
}

// ColorParts is the skeleton of Theorem 5.2 that the [4]-style baseline
// shares: it builds the H-partition of g with threshold theta, colors the
// part-internal edges, whose same-part degree it checks is at most θ,
// with the (2θ−1) black box shifted up by base, and then the crossing
// edges with ColorCrossing within [0, palette). The caller sets the
// result's Palette.
func ColorParts(ctx context.Context, g *graph.Graph, theta int, base, palette int64, opt Options) (*Result, error) {
	hp, err := HPartition(ctx, opt.Exec, g, theta)
	if err != nil {
		return nil, err
	}
	internal := hp.Internal(g)
	if internal.G.MaxDegree() > theta {
		return nil, fmt.Errorf("arbor: internal: same-part degree %d exceeds θ=%d", internal.G.MaxDegree(), theta)
	}
	ic, err := vc.EdgeColor(ctx, internal.G, nil, vc.EdgeIDBound(internal.G), opt.VC.On(opt.Exec))
	if err != nil {
		return nil, fmt.Errorf("arbor: internal edges: %w", err)
	}
	colors := make([]int64, g.M())
	for e := range colors {
		colors[e] = -1
	}
	for e, orig := range internal.EOrig {
		colors[orig] = base + ic.Colors[e]
	}
	crossStats, err := ColorCrossing(ctx, opt.Exec, g, hp, colors, palette)
	if err != nil {
		return nil, err
	}
	return &Result{Colors: colors, Stats: hp.Stats.Seq(ic.Stats).Seq(crossStats), Parts: hp.NumParts}, nil
}

// ColorCrossing colors the crossing edges of the H-partition hp of g, the
// staged half of Theorem 5.2: for i = ℓ−2 … 0, Merge colors the uncolored
// edges between part i (side A) and the parts above it (side B) within
// [0, palette), with D = θ. colors holds −1 on every crossing edge and is
// updated in place; ColorCrossing fails if any edge of g is left
// uncolored.
func ColorCrossing(ctx context.Context, eng sim.Exec, g *graph.Graph, hp *HPartitionResult, colors []int64, palette int64) (sim.Stats, error) {
	var stats sim.Stats
	// The stages share their roles and their program; a one-part graph
	// has none.
	var roleA, roleB []bool
	var prog *mergeProgram
	for i := hp.NumParts - 2; i >= 0; i-- {
		if roleA == nil {
			roleA, roleB = make([]bool, g.N()), make([]bool, g.N())
			prog = newMergeProgram(g)
		}
		active := false
		for v, p := range hp.Part {
			roleA[v] = p == i
			roleB[v] = p > i
			active = active || p == i
		}
		if !active {
			continue
		}
		mr, err := Merge(ctx, eng, MergeSpec{
			G:          g,
			RoleA:      roleA,
			RoleB:      roleB,
			EdgeColors: colors,
			D:          hp.Threshold,
			Palette:    palette,
			prog:       prog,
		})
		if err != nil {
			return sim.Stats{}, fmt.Errorf("arbor: crossing stage %d: %w", i, err)
		}
		stats = stats.Seq(mr.Stats)
	}
	for e, c := range colors {
		if c < 0 {
			return sim.Stats{}, fmt.Errorf("arbor: internal: edge %d left uncolored", e)
		}
	}
	return stats, nil
}

// sqrtPlan is Theorem 5.3's parameterization for declared Δ and θ: the
// Figure-3 connector's group sizes, and the degree and arboricity bounds
// of the connector and of each of its color classes.
type sqrtPlan struct {
	inGroup, outGroup    int
	connDelta, connArb   int
	classDelta, classArb int
}

func planSqrt(delta, theta int) sqrtPlan {
	kIn := max(1, util.ISqrt(delta))
	p := sqrtPlan{inGroup: max(1, util.CeilDiv(delta, kIn)), outGroup: max(1, util.ISqrt(theta))}
	p.connDelta = p.inGroup + p.outGroup
	p.connArb = p.outGroup
	// Each φ-class has ≤ ⌈Δ/inGroup⌉ in-edges and ≤ ⌈θ/outGroup⌉ out-edges
	// per vertex, and inherits the acyclic orientation, so its arboricity
	// is ≤ ⌈θ/outGroup⌉.
	p.classArb = util.CeilDiv(theta, p.outGroup)
	p.classDelta = util.CeilDiv(delta, p.inGroup) + p.classArb
	return p
}

// Palette53 is the declared palette of ColorSqrt for maximum degree delta
// and arboricity bound a at multiplier q. It saturates at math.MaxInt64,
// which ColorSqrt refuses as an overflow.
func Palette53(delta, a int, q float64) int64 {
	p := planSqrt(delta, Threshold(a, q))
	return util.MulSat(Palette52(p.connDelta, p.connArb, q), Palette52(p.classDelta, p.classArb, q))
}

// checkPalette refuses a declared palette that saturated at
// math.MaxInt64, before the run it would size.
func checkPalette(palette int64, delta, theta, x int) error {
	if palette == math.MaxInt64 {
		return fmt.Errorf("arbor: declared palette overflows int64 (Δ=%d, θ=%d, x=%d)", delta, theta, x)
	}
	return nil
}

// ColorSqrt implements Theorem 5.3: the Figure-3 orientation connector
// reduces both Δ and the arboricity to about their square roots, each side
// is colored with Theorem 5.2, and the two colorings compose to
// Δ + O(√(Δ·a)) + O(a) colors in O(√a·log n) rounds.
func ColorSqrt(ctx context.Context, g *graph.Graph, a int, opt Options) (*Result, error) {
	if g.M() == 0 {
		return &Result{Colors: make([]int64, 0), Palette: 1}, nil
	}
	q := opt.q()
	theta := Threshold(a, q)
	delta, err := opt.delta(g)
	if err != nil {
		return nil, err
	}
	p := planSqrt(delta, theta)
	phiPal := Palette52(p.connDelta, p.connArb, q)
	psiPal := Palette52(p.classDelta, p.classArb, q)
	palette := util.MulSat(phiPal, psiPal)
	if err := checkPalette(palette, delta, theta, 1); err != nil {
		return nil, err
	}
	hp, err := HPartition(ctx, opt.Exec, g, theta)
	if err != nil {
		return nil, err
	}
	stats := hp.Stats

	vg, err := connector.Orientation(hp.Orient, p.inGroup, p.outGroup)
	if err != nil {
		return nil, err
	}
	stats = stats.Seq(vg.Stats)

	// Connector coloring φ via Theorem 5.2; declared bounds make the
	// palette independent of the sample.
	phiRes, err := ColorHPartition(ctx, vg.G, p.connArb, opt.declared(p.connDelta))
	if err != nil {
		return nil, fmt.Errorf("arbor: connector coloring: %w", err)
	}
	stats = stats.Seq(phiRes.Stats)

	// Class coloring ψ, Theorem 5.2 again on every φ-class.
	colors, classStats, err := connector.Classes(g, connector.EdgeClasses, vg.BaseColors(phiRes.Colors), phiPal, psiPal,
		func(c int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
			if sub.G.MaxDegree() > p.classDelta {
				return nil, sim.Stats{}, fmt.Errorf("arbor: internal: class degree %d exceeds declared %d", sub.G.MaxDegree(), p.classDelta)
			}
			psi, classErr := ColorHPartition(ctx, sub.G, p.classArb, opt.declared(p.classDelta))
			if classErr != nil {
				return nil, sim.Stats{}, fmt.Errorf("arbor: class %d: %w", c, classErr)
			}
			return psi.Colors, psi.Stats, nil
		})
	if err != nil {
		return nil, err
	}
	return &Result{Colors: colors, Palette: palette, Stats: stats.Seq(classStats), Parts: hp.NumParts}, nil
}
