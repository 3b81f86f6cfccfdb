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
// (ChooseT) and the identifier-reuse trick — one proper O(Δ²) seed coloring,
// computed once up front with Linial's algorithm on the vertex indices,
// serves as the identifier space of every recursive call, so the log* n
// cost is paid a single time.
package cd

import (
	"context"
	"fmt"
	"math"

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
	// SkipTrim disables the final palette trim to D^{x+1}S (ablation A.t).
	SkipTrim bool
}

// Result is a CD coloring with its cost breakdown.
type Result struct {
	Colors []int64
	// Palette is the guaranteed palette after trimming.
	Palette int64
	// Declared is the composed pre-trim palette (DeclaredPalette).
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
//	P(s, x) = 1                 (s ≤ 1: no clique covers an edge)
//	P(s, 0) = d(s−1)+1          (direct stage)
//	P(s, x) = (d(t−1)+1)·P(⌈s/t⌉, x−1)
//
// A level whose cliques are singletons has no edges, and rec colors it 0
// at no cost, so it adds nothing to the palette: once x ≥ ⌈log_t s⌉ the
// palette no longer grows with x. The product saturates at
// math.MaxInt64, which Color refuses as an overflow.
func DeclaredPalette(d, s, t, x int) int64 {
	if s <= 1 {
		return 1
	}
	if x == 0 {
		return int64(d)*int64(s-1) + 1
	}
	gamma := int64(d)*int64(t-1) + 1
	return util.MulSat(gamma, DeclaredPalette(d, util.CeilDiv(s, t), t, x-1))
}

// Color runs CD-Coloring on g with the given clique cover, connector
// parameter t ≥ 2 and recursion depth x ≥ 0. The bound D^{x+1}·S uses the
// cover's diversity D and maximal clique size S.
func Color(ctx context.Context, g *graph.Graph, cover *cliques.Cover, t, x int, opt Options) (*Result, error) {
	r, err := begin(ctx, g, cover, t, x, false, opt)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return &Result{Colors: make([]int64, g.N()), Palette: 1, Declared: 1, Bound: 1}, nil
	}
	s := cover.MaxCliqueSize()
	colors, recStats, err := r.rec(ctx, g, r.seed, cover.Cliques, s, x)
	if err != nil {
		return nil, err
	}
	stats := r.seedStats.Seq(recStats)

	declared := DeclaredPalette(r.d, s, t, x)
	bound := util.MulSat(int64(s), pow64(int64(r.d), x+1))
	palette := declared
	if !opt.SkipTrim && declared > bound {
		topo := &sim.Topology{G: g, Labels: colors}
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

// run is one CD-Coloring or clique-decomposition run: the cover's
// diversity d, the connector parameter t, and the root level's seed
// coloring, which every level reuses as its identifier space (§3), so the
// seed's cost is paid once.
type run struct {
	d, t int
	// decompose stops the recursion after the connector stage of its last
	// level (Theorem 2.4) instead of coloring the final classes.
	decompose   bool
	opt         Options
	seed        []int64
	seedPalette int64
	seedStats   sim.Stats
}

// begin validates the parameters Color and Decompose share (t ≥ 2, x ≥ 0
// for a coloring and x ≥ 1 for a decomposition, and a coloring's declared
// palette within int64) and seeds the run with Linial's algorithm. It
// returns a nil run when the cover has no cliques, so that g has no edges.
func begin(ctx context.Context, g *graph.Graph, cover *cliques.Cover, t, x int, decompose bool, opt Options) (*run, error) {
	if t < 2 {
		return nil, fmt.Errorf("cd: parameter t=%d < 2", t)
	}
	minX := 0
	if decompose {
		minX = 1
	}
	if x < minX {
		return nil, fmt.Errorf("cd: recursion depth x=%d < %d", x, minX)
	}
	if cover.Diversity() == 0 || cover.MaxCliqueSize() < 2 {
		// No edges are covered, so the graph has no edges at all.
		if g.M() > 0 {
			return nil, fmt.Errorf("cd: cover has no cliques but graph has %d edges", g.M())
		}
		return nil, nil
	}
	d, s := cover.Diversity(), cover.MaxCliqueSize()
	if !decompose && DeclaredPalette(d, s, t, x) == math.MaxInt64 {
		return nil, fmt.Errorf("cd: declared palette overflows int64 (D=%d, S=%d, t=%d, x=%d)", d, s, t, x)
	}
	lin, err := linial.Reduce(ctx, opt.Exec, sim.NewTopology(g), int64(g.N()))
	if err != nil {
		return nil, fmt.Errorf("cd: initial seed coloring: %w", err)
	}
	return &run{d: d, t: t, decompose: decompose, opt: opt, seed: lin.Colors, seedPalette: lin.Palette, seedStats: lin.Stats}, nil
}

// rec is one level of Algorithm 1 on the current subgraph. seed is
// indexed by the subgraph's vertices; qs lists the cliques of its cover,
// each in ascending order; s is the declared clique-size bound at this
// level (actual sizes are no larger). The run fixed D at the root, so no
// level reads the cover's memberships.
func (r *run) rec(ctx context.Context, g *graph.Graph, seed []int64, qs [][]int32, s, x int) ([]int64, sim.Stats, error) {
	if g.M() == 0 {
		// Every color is legal; take 0 and pay nothing (the palette the
		// parent reserves for this class is unaffected).
		return make([]int64, g.N()), sim.Stats{}, nil
	}
	if x == 0 {
		// Direct stage (Algorithm 1, lines 9–13): palette d(s−1)+1 ≥ Δ+1.
		target := int64(r.d*(s-1) + 1)
		if min := int64(g.MaxDegree()) + 1; target < min {
			// Cannot happen when the cover bound s is valid; guard anyway.
			return nil, sim.Stats{}, fmt.Errorf("cd: direct palette %d below Δ+1=%d (invalid clique bound)", target, min)
		}
		res, err := vc.Target(ctx, &sim.Topology{G: g, Labels: seed}, r.seedPalette, target, r.opt.VC.On(r.opt.Exec))
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("cd: direct stage: %w", err)
		}
		return res.Colors, res.Stats, nil
	}

	// Connector stage (lines 1–3).
	cc, err := connector.Clique(g, qs, r.t)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	gamma := int64(r.d*(r.t-1) + 1)
	phi, err := vc.Target(ctx, &sim.Topology{G: cc.Sub.G, Labels: seed}, r.seedPalette, gamma, r.opt.VC.On(r.opt.Exec))
	if err != nil {
		return nil, sim.Stats{}, fmt.Errorf("cd: connector coloring: %w", err)
	}
	stats := cc.Stats.Seq(phi.Stats)
	if r.decompose && x == 1 {
		return phi.Colors, stats, nil
	}

	// Class stage (lines 5–8): recurse on the induced color classes, each
	// with the cliques restricted to it. Each class gets the palette of x−1
	// more levels, or, in a decomposition, their γ^{x−1} parts.
	parts, first, err := cliques.Split(qs, phi.Colors, gamma)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	k := util.CeilDiv(s, r.t)
	subPalette := DeclaredPalette(r.d, k, r.t, x-1)
	if r.decompose {
		subPalette = pow64(gamma, x-1)
	}
	colors, classStats, err := connector.Classes(g, connector.VertexClasses, phi.Colors, gamma, subPalette,
		func(c int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
			subSeed := make([]int64, sub.G.N())
			for w, v := range sub.VOrig {
				subSeed[w] = seed[v]
			}
			return r.rec(ctx, sub.G, subSeed, parts[c-first], k, x-1)
		})
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return colors, stats.Seq(classStats), nil
}

// pow64 returns b^e for b, e ≥ 0, saturating at math.MaxInt64.
func pow64(b int64, e int) int64 {
	p := int64(1)
	for i := 0; i < e; i++ {
		p = util.MulSat(p, b)
	}
	return p
}
