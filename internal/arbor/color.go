package arbor

import (
	"context"
	"fmt"

	"repro/internal/connector"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/util"
	"repro/internal/vc"
)

// Options configures the Section 5 algorithms.
type Options struct {
	// Exec selects the simulator engine.
	Exec sim.Exec
	// VC configures the coloring black box used for part-internal edges.
	VC vc.Options
	// Q is the H-partition threshold multiplier (θ = ⌈q·a⌉); values above 2
	// guarantee logarithmically many parts (the paper's 2+ε). Default 3;
	// values below 2.05 are clamped up to keep the peeling fast.
	Q float64
	// DeclaredDelta, when positive, overrides the maximum-degree bound used
	// for palette sizing, so that parallel invocations on sibling subgraphs
	// share identical palettes. It must be ≥ the graph's actual Δ.
	DeclaredDelta int
	// InternalStar switches the part-internal edge coloring of Theorem 5.2
	// from the (2θ−1) black box to the §4 star partition at x=1 — the
	// speed-for-colors option the paper notes ("this step can be computed
	// much faster in the expense of increasing the constant"): 4θ internal
	// colors instead of 2θ−1.
	InternalStar bool
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

// Result is an edge coloring produced by one of the Section 5 algorithms.
type Result struct {
	// Colors is indexed by edge identifier.
	Colors []int64
	// Palette is the guaranteed palette bound.
	Palette int64
	Stats   sim.Stats
	// Parts is ℓ of the top-level H-partition (0 when none was needed).
	Parts int
	// Threshold is θ of the top-level H-partition.
	Threshold int
}

// Palette52 is the declared palette of ColorHPartition for a graph with
// maximum degree delta and arboricity bound a at multiplier q:
// (Δ + θ − 1) crossing colors plus (2θ − 1) part-internal colors.
func Palette52(delta, a int, q float64) int64 {
	theta := Threshold(a, q)
	return int64(delta) + int64(theta) - 1 + int64(2*theta-1)
}

// Palette52Star is the declared palette when InternalStar is set: the
// internal block grows to 4θ.
func Palette52Star(delta, a int, q float64) int64 {
	theta := Threshold(a, q)
	return int64(delta) + int64(theta) - 1 + int64(4*theta)
}

// ColorHPartition implements Theorem 5.2: a (Δ + O(a))-edge-coloring in
// O(a·log n) rounds. Internal edges of the parts are colored with the black
// box in a reserved O(a)-color block; crossing edges are colored stage by
// stage (highest part downward) with Merge.
func ColorHPartition(ctx context.Context, g *graph.Graph, a int, opt Options) (*Result, error) {
	if g.M() == 0 {
		return &Result{Colors: make([]int64, 0), Palette: 1}, nil
	}
	q := opt.q()
	theta := Threshold(a, q)
	delta := g.MaxDegree()
	if opt.DeclaredDelta > 0 {
		if opt.DeclaredDelta < delta {
			return nil, fmt.Errorf("arbor: declared Δ=%d below actual %d", opt.DeclaredDelta, delta)
		}
		delta = opt.DeclaredDelta
	}
	hp, err := HPartition(ctx, opt.Exec, g, theta)
	if err != nil {
		return nil, err
	}
	stats := hp.Stats

	// Reserved blocks: crossing palette [0, crossPal), internal block
	// [crossPal, crossPal + internalPal).
	crossPal := int64(delta + theta - 1)
	internalPal := int64(2*theta - 1)
	if opt.InternalStar {
		internalPal = int64(4 * theta)
	}

	colors := make([]int64, g.M())
	for e := range colors {
		colors[e] = -1
	}

	// Color part-internal edges in one shot: the spanning subgraph of
	// same-part edges has maximum degree ≤ θ (a vertex's same-part
	// neighbors all counted toward its peeling threshold).
	internal, err := graph.SpanningSubgraph(g, func(e int) bool {
		u, v := g.Endpoints(e)
		return hp.Part[u] == hp.Part[v]
	})
	if err != nil {
		return nil, err
	}
	if internal.G.M() > 0 {
		if internal.G.MaxDegree() > theta {
			return nil, fmt.Errorf("arbor: internal: same-part degree %d exceeds θ=%d", internal.G.MaxDegree(), theta)
		}
		icColors, icStats, err := colorInternal(ctx, internal.G, theta, opt)
		if err != nil {
			return nil, fmt.Errorf("arbor: internal edges: %w", err)
		}
		stats = stats.Seq(icStats)
		for e := 0; e < internal.G.M(); e++ {
			colors[internal.OrigEdge(e)] = crossPal + icColors[e]
		}
	}

	// Crossing stages: for i = ℓ−2 … 0, A = part i, B = parts > i.
	for i := hp.NumParts - 2; i >= 0; i-- {
		roleA := make([]bool, g.N())
		roleB := make([]bool, g.N())
		active := false
		for v := 0; v < g.N(); v++ {
			switch {
			case hp.Part[v] == i:
				roleA[v] = true
				active = true
			case hp.Part[v] > i:
				roleB[v] = true
			}
		}
		if !active {
			continue
		}
		mr, err := Merge(ctx, opt.Exec, MergeSpec{
			G:          g,
			RoleA:      roleA,
			RoleB:      roleB,
			EdgeColors: colors,
			D:          theta,
			Palette:    crossPal,
		})
		if err != nil {
			return nil, fmt.Errorf("arbor: crossing stage %d: %w", i, err)
		}
		stats = stats.Seq(mr.Stats)
	}

	for e, c := range colors {
		if c < 0 {
			return nil, fmt.Errorf("arbor: internal: edge %d left uncolored", e)
		}
	}
	return &Result{
		Colors:    colors,
		Palette:   crossPal + internalPal,
		Stats:     stats,
		Parts:     hp.NumParts,
		Threshold: theta,
	}, nil
}

// colorInternal colors the part-internal subgraph (max degree ≤ θ) within
// the reserved internal block: the black box (2θ−1 colors) by default, or
// the §4 star partition at x=1 (≤ 4θ colors, fewer rounds for large θ)
// when InternalStar is set.
func colorInternal(ctx context.Context, internal *graph.Graph, theta int, opt Options) ([]int64, sim.Stats, error) {
	if opt.InternalStar {
		if t, err := star.ChooseT(internal.MaxDegree(), 1); err == nil {
			res, err := star.EdgeColor(ctx, internal, t, 1, star.Options{Exec: opt.Exec, VC: opt.VC})
			if err != nil {
				return nil, sim.Stats{}, err
			}
			if res.Palette > int64(4*theta) {
				return nil, sim.Stats{}, fmt.Errorf("arbor: internal star palette %d exceeds 4θ=%d", res.Palette, 4*theta)
			}
			return res.Colors, res.Stats, nil
		}
		// Degenerate degree: fall through to the black box.
	}
	res, err := vc.EdgeColor(ctx, internal, nil, vc.EdgeIDBound(internal), opt.VC)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return res.Colors, res.Stats, nil
}

// Palette53 is the declared palette of ColorSqrt for maximum degree delta
// and arboricity bound a at multiplier q.
func Palette53(delta, a int, q float64) int64 {
	theta := Threshold(a, q)
	kIn := max(1, util.ISqrt(delta))
	inGroup := max(1, util.CeilDiv(delta, kIn))
	outGroup := max(1, util.ISqrt(theta))
	connDelta := inGroup + outGroup
	connArb := outGroup
	classDelta := util.CeilDiv(delta, inGroup) + util.CeilDiv(theta, outGroup)
	classArb := util.CeilDiv(theta, outGroup)
	return Palette52(connDelta, connArb, q) * Palette52(classDelta, classArb, q)
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
	delta := g.MaxDegree()
	if opt.DeclaredDelta > 0 {
		if opt.DeclaredDelta < delta {
			return nil, fmt.Errorf("arbor: declared Δ=%d below actual %d", opt.DeclaredDelta, delta)
		}
		delta = opt.DeclaredDelta
	}
	hp, err := HPartition(ctx, opt.Exec, g, theta)
	if err != nil {
		return nil, err
	}
	stats := hp.Stats

	kIn := max(1, util.ISqrt(delta))
	inGroup := max(1, util.CeilDiv(delta, kIn))
	outGroup := max(1, util.ISqrt(theta))
	vg, err := connector.Orientation(hp.Orient, inGroup, outGroup)
	if err != nil {
		return nil, err
	}
	stats = stats.Seq(vg.Stats)

	// Connector coloring φ via Theorem 5.2; declared bounds make the
	// palette independent of the sample.
	connDelta := inGroup + outGroup
	connArb := outGroup
	phiRes, err := ColorHPartition(ctx, vg.G, connArb, Options{
		Exec: opt.Exec, VC: opt.VC, Q: opt.Q, DeclaredDelta: connDelta,
	})
	if err != nil {
		return nil, fmt.Errorf("arbor: connector coloring: %w", err)
	}
	stats = stats.Seq(phiRes.Stats)
	phiPal := Palette52(connDelta, connArb, q)
	phi := make([]int64, g.M())
	for ce := 0; ce < vg.G.M(); ce++ {
		phi[vg.EOrig[ce]] = phiRes.Colors[ce]
	}

	// Class coloring ψ: each φ-class has ≤ ⌈Δ/inGroup⌉ in-edges and
	// ≤ ⌈θ/outGroup⌉ out-edges per vertex, and inherits the acyclic
	// orientation, so its arboricity is ≤ ⌈θ/outGroup⌉.
	classDelta := util.CeilDiv(delta, inGroup) + util.CeilDiv(theta, outGroup)
	classArb := util.CeilDiv(theta, outGroup)
	psiPal := Palette52(classDelta, classArb, q)
	colors := make([]int64, g.M())
	var classStats []sim.Stats
	for c := int64(0); c < phiPal; c++ {
		sub, err := graph.SpanningSubgraph(g, func(e int) bool { return phi[e] == c })
		if err != nil {
			return nil, err
		}
		if sub.G.M() == 0 {
			continue
		}
		if sub.G.MaxDegree() > classDelta {
			return nil, fmt.Errorf("arbor: internal: class degree %d exceeds declared %d", sub.G.MaxDegree(), classDelta)
		}
		psi, err := ColorHPartition(ctx, sub.G, classArb, Options{
			Exec: opt.Exec, VC: opt.VC, Q: opt.Q, DeclaredDelta: classDelta,
		})
		if err != nil {
			return nil, fmt.Errorf("arbor: class %d: %w", c, err)
		}
		classStats = append(classStats, psi.Stats)
		for e := 0; e < sub.G.M(); e++ {
			orig := sub.OrigEdge(e)
			colors[orig] = phi[orig]*psiPal + psi.Colors[e]
		}
	}
	stats = stats.Seq(sim.ParAll(classStats))
	return &Result{
		Colors:    colors,
		Palette:   phiPal * psiPal,
		Stats:     stats,
		Parts:     hp.NumParts,
		Threshold: theta,
	}, nil
}
