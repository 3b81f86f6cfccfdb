// Package cd implements CD-Coloring (Algorithm 1 of the paper): vertex
// coloring of bounded-diversity graphs by recursive clique decomposition.
//
// At each of x levels the graph's identified cliques are split into groups
// of t by a clique connector; the connector — whose maximum degree is only
// D(t−1) (Lemma 2.1) — is colored with γ = D(t−1)+1 colors by the black-box
// engine, and each color class induces a subgraph whose cliques have shrunk
// by a factor t (Lemma 2.2/2.3). Recursing x times and coloring the final
// classes directly yields a proper coloring with at most D^{x+1}·S colors
// (Theorems 2.5–2.7, 3.2, 3.3(i)) in time driven by √(D·t)-degree
// subproblems rather than Δ.
//
// The §3 refinements are implemented: the parameter choice t = ⌊S^{1/(x+1)}⌋
// (ChooseT) and the identifier-reuse trick — one proper seed coloring
// computed once up front serves as the identifier space of every recursive
// call, so the log* n cost is paid a single time.
package cd

import (
	"context"
	"fmt"

	"repro/internal/cliques"
	"repro/internal/connector"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/util"
	"repro/internal/vc"
)

// Options configures a CD-Coloring run.
type Options struct {
	// Exec selects the simulator engine.
	Exec sim.Exec
	// VC configures the coloring black box.
	VC vc.Options
	// Seed, when non-nil, is a proper coloring of the input graph with
	// palette SeedPalette, used as the identifier space everywhere (§3).
	// When nil, Color computes one with Linial's algorithm and charges its
	// cost to the run.
	Seed        []int64
	SeedPalette int64
	// SkipTrim disables the final palette trim to D^{x+1}S (ablation A.t).
	SkipTrim bool
}

// Result is a CD coloring with its cost breakdown.
type Result struct {
	Colors []int64
	// Palette is the guaranteed palette after trimming.
	Palette int64
	// Declared is the composed pre-trim palette γ^x · (D(k−1)+1).
	Declared int64
	// Bound is the paper's D^{x+1}·S target.
	Bound int64
	Stats sim.Stats
}

// ChooseT returns the §3 parameter choice t = ⌊S^{1/(x+1)}⌋, clamped to at
// least 2 (connectors need groups of at least two vertices).
func ChooseT(s, x int) int {
	if s < 2 {
		return 2
	}
	return max(2, util.IRoot(s, x+1))
}

// DeclaredPalette composes the palette produced by x recursion levels with
// parameter t on a cover of diversity d and clique size s:
//
//	P(s, 0) = d(s−1)+1          (direct stage)
//	P(s, x) = (d(t−1)+1)·P(⌈s/t⌉, x−1)
func DeclaredPalette(d, s, t, x int) int64 {
	if x == 0 {
		return int64(d*(s-1) + 1)
	}
	gamma := int64(d*(t-1) + 1)
	return gamma * DeclaredPalette(d, util.CeilDiv(s, t), t, x-1)
}

// Color runs CD-Coloring on g with the given clique cover, connector
// parameter t ≥ 2 and recursion depth x ≥ 0. The bound D^{x+1}·S uses the
// cover's diversity D and maximal clique size S.
func Color(ctx context.Context, g *graph.Graph, cover *cliques.Cover, t, x int, opt Options) (*Result, error) {
	if t < 2 {
		return nil, fmt.Errorf("cd: parameter t=%d < 2", t)
	}
	if x < 0 {
		return nil, fmt.Errorf("cd: recursion depth x=%d < 0", x)
	}
	d := cover.Diversity()
	s := cover.MaxCliqueSize()
	if d == 0 || s < 2 {
		// No edges are covered, so the graph has no edges at all.
		if g.M() > 0 {
			return nil, fmt.Errorf("cd: cover has no cliques but graph has %d edges", g.M())
		}
		return &Result{Colors: make([]int64, g.N()), Palette: 1, Declared: 1, Bound: 1}, nil
	}

	var stats sim.Stats
	seed, seedPalette := opt.Seed, opt.SeedPalette
	if seed == nil {
		lin, err := linial.Reduce(ctx, opt.Exec, sim.NewTopology(g), int64(g.N()))
		if err != nil {
			return nil, fmt.Errorf("cd: initial seed coloring: %w", err)
		}
		seed, seedPalette = lin.Colors, lin.Palette
		stats = stats.Seq(lin.Stats)
	} else if len(seed) != g.N() {
		return nil, fmt.Errorf("cd: seed has %d entries for %d vertices", len(seed), g.N())
	}

	ids := make([]int64, g.N())
	for v := range ids {
		ids[v] = int64(v)
	}
	colors, recStats, err := colorRec(ctx, g, ids, seed, seedPalette, cover, d, s, t, x, opt)
	if err != nil {
		return nil, err
	}
	stats = stats.Seq(recStats)

	declared := DeclaredPalette(d, s, t, x)
	bound := int64(s)
	for i := 0; i <= x; i++ {
		bound *= int64(d)
	}
	palette := declared
	if !opt.SkipTrim && declared > bound {
		topo := &sim.Topology{G: g, IDs: ids, Labels: colors}
		red, err := reduce.TrimClasses(ctx, opt.Exec, topo, declared, bound)
		if err != nil {
			return nil, fmt.Errorf("cd: final trim: %w", err)
		}
		colors = red.Colors
		palette = bound
		stats = stats.Seq(red.Stats)
	}
	return &Result{Colors: colors, Palette: palette, Declared: declared, Bound: bound, Stats: stats}, nil
}

// colorRec is one level of Algorithm 1 on the current subgraph. ids and
// seed are indexed by the subgraph's vertices; s is the declared clique-size
// bound at this level (actual sizes are no larger).
func colorRec(ctx context.Context, g *graph.Graph, ids, seed []int64, seedPalette int64, cover *cliques.Cover, d, s, t, x int, opt Options) ([]int64, sim.Stats, error) {
	if g.M() == 0 {
		// Every color is legal; take 0 and pay nothing (the palette the
		// parent reserves for this class is unaffected).
		return make([]int64, g.N()), sim.Stats{}, nil
	}
	topo := &sim.Topology{G: g, IDs: ids, Labels: seed}
	if x == 0 {
		// Direct stage (Algorithm 1, lines 9–13): palette d(s−1)+1 ≥ Δ+1.
		target := int64(d*(s-1) + 1)
		if min := int64(g.MaxDegree()) + 1; target < min {
			// Cannot happen when the cover bound s is valid; guard anyway.
			return nil, sim.Stats{}, fmt.Errorf("cd: direct palette %d below Δ+1=%d (invalid clique bound)", target, min)
		}
		res, err := vc.Target(ctx, topo, seedPalette, target, opt.VC)
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("cd: direct stage: %w", err)
		}
		return res.Colors, res.Stats, nil
	}

	// Connector stage (lines 1–3).
	cc, err := connector.Clique(g, cover, t)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	stats := cc.Stats
	gamma := int64(d*(t-1) + 1)
	connTopo := &sim.Topology{G: cc.Sub.G, IDs: ids, Labels: seed}
	phi, err := vc.Target(ctx, connTopo, seedPalette, gamma, opt.VC)
	if err != nil {
		return nil, sim.Stats{}, fmt.Errorf("cd: connector coloring: %w", err)
	}
	stats = stats.Seq(phi.Stats)

	// Class stage (lines 5–8): recurse on induced color classes in parallel.
	k := util.CeilDiv(s, t)
	subPalette := DeclaredPalette(d, k, t, x-1)
	classes := make([][]int, gamma)
	for v := 0; v < g.N(); v++ {
		c := phi.Colors[v]
		classes[c] = append(classes[c], v)
	}
	colors := make([]int64, g.N())
	var classStats []sim.Stats
	for _, members := range classes {
		if len(members) == 0 {
			continue
		}
		sub, err := graph.InducedSubgraph(g, members)
		if err != nil {
			return nil, sim.Stats{}, err
		}
		subIDs := make([]int64, len(members))
		subSeed := make([]int64, len(members))
		for w := range members {
			subIDs[w] = ids[sub.OrigVertex(w)]
			subSeed[w] = seed[sub.OrigVertex(w)]
		}
		subCover := cover.Restrict(sub)
		psi, st, err := colorRec(ctx, sub.G, subIDs, subSeed, seedPalette, subCover, d, k, t, x-1, opt)
		if err != nil {
			return nil, sim.Stats{}, err
		}
		classStats = append(classStats, st)
		for w, v := range members {
			colors[v] = phi.Colors[v]*subPalette + psi[w]
		}
	}
	return colors, stats.Seq(sim.ParAll(classStats)), nil
}
