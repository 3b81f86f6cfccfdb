// Package star implements the §4 star-partition edge-coloring: the
// (2^{x+1}Δ)-edge-coloring of Theorem 4.1, built on edge connectors instead
// of a simulated line graph.
//
// One level with parameter t: every vertex splits into ⌈deg/t⌉ virtual
// vertices each owning ≤ t incident edges, giving a connector of maximum
// degree t whose edges are exactly the graph's edges. The connector is
// (2t−1)-edge-colored by the black box; grouping the real edges by that
// color φ yields a (2t−1, ⌈Δ/t⌉)-star-partition — inside one class, a vertex
// has at most one edge per virtual vertex, so stars shrink to ⌈Δ/t⌉.
// Recursing x times with t = ⌊Δ^{1/(x+1)}⌋ and coloring the final classes
// directly yields (2t−1)^x·(2⌈Δ/tˣ⌉−1) ≤ 2^{x+1}Δ colors after the final
// one-class-per-round trim.
//
// Every level's black box starts from one seed (§3): an O(Δ²) edge
// coloring that EdgeColor computes once, with Linial's algorithm on the
// line topology, and hands down as the identifier space of every level, so
// the log* n term is paid once.
package star

import (
	"context"
	"fmt"

	"repro/internal/connector"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/util"
	"repro/internal/vc"
)

// Options configures a star-partition run.
type Options struct {
	// Exec selects the simulator engine.
	Exec sim.Exec
	// VC configures the coloring black box.
	VC vc.Options
	// SkipTrim disables the final trim to 2^{x+1}Δ (ablation).
	SkipTrim bool
}

// Result is a star-partition edge coloring with its cost breakdown.
type Result struct {
	// Colors is indexed by the graph's edge identifiers.
	Colors []int64
	// Palette is the guaranteed palette after trimming.
	Palette int64
	// Declared is the composed pre-trim palette.
	Declared int64
	// Bound is the paper's 2^{x+1}·Δ target.
	Bound int64
	Stats sim.Stats
}

// ChooseT returns the §4 parameter t = ⌊Δ^{1/(x+1)}⌋. It fails when the
// choice degenerates below 2, i.e. when x exceeds log₂Δ − 1 (the paper
// assumes x ∈ o(log Δ)).
func ChooseT(delta, x int) (int, error) {
	if delta < 2 {
		return 0, fmt.Errorf("star: maximum degree %d too small", delta)
	}
	t := util.IRoot(delta, x+1)
	if t < 2 {
		return 0, fmt.Errorf("star: x=%d too large for Δ=%d (t would be %d)", x, delta, t)
	}
	return t, nil
}

// DeclaredPalette composes the palette of x levels with parameter t
// starting from degree bound d:
//
//	P(d, 0) = 2d−1
//	P(d, x) = (2t−1)·P(⌈d/t⌉, x−1)
func DeclaredPalette(d, t, x int) int64 {
	if x == 0 {
		return int64(max(1, 2*d-1))
	}
	return int64(2*t-1) * DeclaredPalette(util.CeilDiv(d, t), t, x-1)
}

// Bound returns the paper's palette target 2^{x+1}·Δ.
func Bound(delta, x int) int64 {
	return int64(util.IPow(2, x+1)) * int64(delta)
}

// EdgeColor runs the star-partition algorithm with x ≥ 0 recursion levels
// and parameter t ≥ 2 (use ChooseT for the paper's choice). x = 0 degrades
// to the direct (2Δ−1)-edge-coloring.
func EdgeColor(ctx context.Context, g *graph.Graph, t, x int, opt Options) (*Result, error) {
	if x < 0 {
		return nil, fmt.Errorf("star: recursion depth x=%d < 0", x)
	}
	if t < 2 && x > 0 {
		return nil, fmt.Errorf("star: parameter t=%d < 2", t)
	}
	delta := g.MaxDegree()
	if g.M() == 0 {
		return &Result{Colors: nil, Palette: 1, Declared: 1, Bound: 1}, nil
	}

	// The §3 seed: one O(Δ²) edge coloring, computed once and reused as
	// the identifier space of every level.
	topo, err := vc.LineTopology(g, nil)
	if err != nil {
		return nil, fmt.Errorf("star: initial edge seed: %w", err)
	}
	lin, err := linial.Reduce(ctx, opt.Exec, topo, vc.EdgeIDBound(g))
	if err != nil {
		return nil, fmt.Errorf("star: initial edge seed: %w", err)
	}
	colors, recStats, err := colorRec(ctx, g, lin.Colors, lin.Palette, delta, t, x, opt)
	if err != nil {
		return nil, err
	}
	stats := lin.Stats.Seq(recStats)

	declared := DeclaredPalette(delta, t, x)
	bound := Bound(delta, x)
	palette := declared
	if !opt.SkipTrim && declared > bound {
		topo, err := vc.LineTopology(g, colors)
		if err != nil {
			return nil, fmt.Errorf("star: final trim: %w", err)
		}
		red, err := reduce.TrimClasses(ctx, opt.Exec, topo, declared, bound)
		if err != nil {
			return nil, fmt.Errorf("star: final trim: %w", err)
		}
		colors = red.Colors
		palette = bound
		stats = stats.Seq(red.Stats)
	}
	return &Result{Colors: colors, Palette: palette, Declared: declared, Bound: bound, Stats: stats}, nil
}

// colorRec colors the edges of the current (spanning-subgraph) level. seed
// is indexed by the current graph's edge identifiers; declaredDeg is the
// level's degree bound (actual Δ is never larger).
func colorRec(ctx context.Context, g *graph.Graph, seed []int64, seedPalette int64, declaredDeg, t, x int, opt Options) ([]int64, sim.Stats, error) {
	if g.M() == 0 {
		return nil, sim.Stats{}, nil
	}
	if x == 0 {
		res, err := vc.EdgeColor(ctx, g, seed, seedPalette, opt.VC.On(opt.Exec))
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("star: direct stage: %w", err)
		}
		return res.Colors, res.Stats, nil
	}

	// Connector stage: Δ(connector) ≤ t, so 2t−1 colors suffice.
	vg, err := connector.Edge(g, t)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	stats := vg.Stats
	// The connector's edges are the graph's edges; a proper edge seed of g
	// is a proper edge seed of the connector (adjacent connector edges
	// share an owner).
	connSeed := make([]int64, vg.G.M())
	for ce := 0; ce < vg.G.M(); ce++ {
		connSeed[ce] = seed[vg.EOrig[ce]]
	}
	phiRes, err := vc.EdgeColor(ctx, vg.G, connSeed, seedPalette, opt.VC.On(opt.Exec))
	if err != nil {
		return nil, sim.Stats{}, fmt.Errorf("star: connector coloring: %w", err)
	}
	stats = stats.Seq(phiRes.Stats)

	// Class stage: the 2t−1 classes' stars shrink to k = ⌈declaredDeg/t⌉.
	k := util.CeilDiv(declaredDeg, t)
	colors, classStats, err := connector.Classes(g, connector.EdgeClasses, vg.BaseColors(phiRes.Colors), phiRes.Palette, DeclaredPalette(k, t, x-1),
		func(_ int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
			if sub.G.MaxDegree() > k {
				return nil, sim.Stats{}, fmt.Errorf("star: internal: class star size %d exceeds ⌈Δ/t⌉=%d", sub.G.MaxDegree(), k)
			}
			subSeed := make([]int64, sub.G.M())
			for e, orig := range sub.EOrig {
				subSeed[e] = seed[orig]
			}
			return colorRec(ctx, sub.G, subSeed, seedPalette, k, t, x-1, opt)
		})
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return colors, stats.Seq(classStats), nil
}
