// Package vc provides the repository's pluggable coloring "black box": the
// role the paper assigns to the (Δ+1)-coloring algorithm of Fraigniaud,
// Heinrich and Kosowski [17]. Our engine is the classical deterministic
// pipeline Linial → Kuhn–Wattenhofer, which produces the same palettes
// ((Δ+1) for vertices, (2Δ−1) for edges) in O(Δ log Δ + log* n) rounds — see
// DESIGN.md §1.3 for the substitution note and its effect on measured round
// exponents.
//
// Edge colorings are computed by running the vertex pipeline on the line
// graph, simulated on the base graph itself (LineTopology): L(G) is never
// built. Every line-graph round is executable in one round of the base
// graph: the state of edge {u,v} is replicated at u and v, each round the
// endpoints exchange it (one message per edge), and every message of L(G)
// travels between two edges sharing an endpoint, i.e. it is a local read at
// that shared vertex. The simulator gathers exactly those reads through
// the base graph's line table. Reported rounds therefore transfer 1:1;
// reported message counts are line-graph messages (≤ 2 base messages
// each).
package vc

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/sim"
)

// Options configures the black-box engine.
type Options struct {
	// Exec selects the simulator engine (sequential by default).
	Exec sim.Exec
}

// On returns the options with Exec defaulting to e: a composed algorithm
// passes its own engine, so the black box runs on it unless the caller set
// Exec here.
func (o Options) On(e sim.Exec) Options {
	if o.Exec == nil {
		o.Exec = e
	}
	return o
}

// Result is a computed coloring with its cost.
type Result struct {
	Colors  []int64
	Palette int64 // guaranteed bound: all colors < Palette
	Stats   sim.Stats
}

// Delta1 computes a proper (Δ+1)-vertex-coloring of t: of t.G, or of
// L(t.G) on a line topology.
//
// Starting colors: the topology's seed labels when non-nil (they must be a
// proper coloring with palette m0), otherwise the identifiers (m0 must
// exceed every identifier). This parameterization is what implements the
// paper's §3 reuse trick: recursive calls pass the one O(Δ²)-coloring
// computed up front as seed, paying log* of the seed palette rather than
// log* n at every level.
func Delta1(ctx context.Context, t *sim.Topology, m0 int64, opt Options) (*Result, error) {
	target := int64(t.MaxDegree()) + 1
	return Target(ctx, t, m0, target, opt)
}

// Target computes a proper vertex coloring of t with the given palette
// target ≥ Δ+1.
func Target(ctx context.Context, t *sim.Topology, m0, target int64, opt Options) (*Result, error) {
	if target < int64(t.MaxDegree())+1 {
		return nil, fmt.Errorf("vc: target %d below Δ+1 = %d", target, t.MaxDegree()+1)
	}
	lin, err := linial.Reduce(ctx, opt.Exec, t, m0)
	if err != nil {
		return nil, err
	}
	if lin.Palette <= target {
		return &Result{Colors: lin.Colors, Palette: target, Stats: lin.Stats}, nil
	}
	t2 := &sim.Topology{G: t.G, Line: t.Line, Labels: lin.Colors}
	red, err := reduce.Auto(ctx, opt.Exec, t2, lin.Palette, target)
	if err != nil {
		return nil, err
	}
	return &Result{Colors: red.Colors, Palette: target, Stats: lin.Stats.Seq(red.Stats)}, nil
}

// LineTopology builds the simulation topology for edge algorithms on g:
// the line graph simulated on g, whose vertex e is g's edge e, with the
// canonical edge identifier id({u,v}) = u·n + v computed by the topology,
// neighbors read from g's line table, and optional seed edge labels. It
// fails, before allocating the table, when the table would overflow its
// int32 offsets (graph.NewLineTable).
func LineTopology(g *graph.Graph, seed []int64) (*sim.Topology, error) {
	line, err := graph.NewLineTable(g)
	if err != nil {
		return nil, fmt.Errorf("vc: %w", err)
	}
	return &sim.Topology{G: g, Line: line, Labels: seed}, nil
}

// EdgeIDBound returns the palette bound that covers LineTopology's
// canonical edge identifiers.
func EdgeIDBound(g *graph.Graph) int64 {
	n := int64(g.N())
	return n*n + 1
}

// EdgePalette returns the contractual palette of EdgeColor for a graph of
// maximum degree d: 2d−1 (1 when there are no edges at all).
func EdgePalette(d int) int64 {
	if d < 1 {
		return 1
	}
	return int64(2*d - 1)
}

// EdgeColor computes a proper (2Δ−1)-edge-coloring of g by running the
// vertex pipeline on the line graph. Seed, when non-nil, must be a proper
// edge coloring of g with palette m0; otherwise pass m0 = EdgeIDBound(g).
// Colors are indexed by g's edge identifiers.
func EdgeColor(ctx context.Context, g *graph.Graph, seed []int64, m0 int64, opt Options) (*Result, error) {
	if g.M() == 0 {
		return &Result{Colors: nil, Palette: 1}, nil
	}
	t, err := LineTopology(g, seed)
	if err != nil {
		return nil, err
	}
	// Δ(L(G)) ≤ 2Δ(G)−2, so Δ(L)+1 ≤ the contractual 2Δ−1; color as low as
	// the line graph allows but report the 2Δ−1 contract.
	res, err := Delta1(ctx, t, m0, opt)
	if err != nil {
		return nil, fmt.Errorf("vc: edge color: %w", err)
	}
	palette := EdgePalette(g.MaxDegree())
	if res.Palette > palette {
		// Cannot happen: Δ(L)+1 ≤ 2Δ−1. Guard kept as an invariant check.
		return nil, fmt.Errorf("vc: internal: line palette %d exceeds 2Δ−1 = %d", res.Palette, palette)
	}
	return &Result{Colors: res.Colors, Palette: palette, Stats: res.Stats}, nil
}
