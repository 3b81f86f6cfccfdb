package distcolor

// End-to-end integration tests: every public pipeline on every workload
// family, verified and cross-checked. These complement the per-package unit
// tests by exercising the full composition (generator → simulator →
// connector recursion → black box → verification) exactly the way the
// examples and benchmarks do.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// families enumerates one representative graph per workload family.
func families(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	nr, err := gen.NearRegular(180, 14, 2017)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := gen.ForestUnionHub(300, 2, 120, 2017)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"near-regular": nr,
		"gnp":          gen.GNP(150, 0.08, 2017),
		"forest-hub":   hub,
		"grid":         gen.Grid(12, 15),
		"tree":         gen.Tree(200, 2017),
		"geometric":    gen.Geometric(250, 0.09, 2017),
		"complete":     graph.Complete(18),
		"bipartite":    graph.CompleteBipartite(10, 14),
	}
}

func TestIntegrationEdgeColoringAcrossFamilies(t *testing.T) {
	ctx := context.Background()
	for name, g := range families(t) {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			if g.MaxDegree() >= 4 {
				res, err := Run(ctx, g, AlgoEdgeStar, Params{"x": 1}, Options{})
				if err != nil {
					t.Fatalf("star: %v", err)
				}
				if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
					t.Fatalf("star: %v", err)
				}
				if res.Palette > int64(4*g.MaxDegree()) {
					t.Fatalf("star palette %d > 4Δ", res.Palette)
				}
			}
			res, err := Run(ctx, g, AlgoEdgeGreedy, nil, Options{})
			if err != nil {
				t.Fatalf("greedy: %v", err)
			}
			if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
				t.Fatalf("greedy: %v", err)
			}

			a := ArboricityUpperBound(g)
			if a >= 1 && g.M() > 0 {
				sp, err := Run(ctx, g, AlgoEdgeSparse, Params{"arboricity": float64(a)}, Options{})
				if err != nil {
					t.Fatalf("sparse(a=%d): %v", a, err)
				}
				if err := CheckEdgeColoring(g, sp.Colors, sp.Palette); err != nil {
					t.Fatalf("sparse: %v", err)
				}
			}
		})
	}
}

func TestIntegrationVertexColoringAcrossFamilies(t *testing.T) {
	for name, g := range families(t) {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			res, err := Run(context.Background(), g, AlgoVertexDelta1, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckVertexColoring(g, res.Colors, int64(g.MaxDegree())+1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIntegrationCDLineGraphEquivalence(t *testing.T) {
	// Edge-coloring g and vertex-coloring L(g) with CD must both be proper
	// and agree on the translation (an edge coloring of g IS a vertex
	// coloring of L(g) and vice versa).
	base := gen.GNP(40, 0.2, 99)
	lg, cov, err := LineCover(base)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= 2; x++ {
		res, err := Run(context.Background(), lg, AlgoVertexCD, Params{"x": float64(x)}, Options{Cover: cov})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if err := CheckEdgeColoring(base, res.Colors, res.Palette); err != nil {
			t.Fatalf("x=%d: translated edge coloring improper: %v", x, err)
		}
		d, s := cov.Diversity(), cov.MaxCliqueSize()
		bound := int64(s)
		for i := 0; i <= x; i++ {
			bound *= int64(d)
		}
		if res.Palette > bound {
			t.Fatalf("x=%d: palette %d above D^{x+1}S=%d", x, res.Palette, bound)
		}
	}
}

func TestIntegrationTradeoffShape(t *testing.T) {
	// The Table 1 trade-off on one workload: palettes increase strictly
	// with x, and deeper recursion buys rounds relative to x=1. (Exact
	// monotonicity across all x only holds asymptotically — at finite Δ the
	// per-level constant can make x=3 no better than x=2, so we assert the
	// paper-relevant comparisons: every x>1 beats x=1 on rounds.)
	g, err := gen.NearRegular(512, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := Run(ctx, g, AlgoEdgeStar, Params{"x": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevPalette := base.Palette
	for x := 2; x <= 3; x++ {
		res, err := Run(ctx, g, AlgoEdgeStar, Params{"x": float64(x)}, Options{})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if res.Stats.Rounds >= base.Stats.Rounds {
			t.Fatalf("x=%d: rounds %d not below x=1's %d", x, res.Stats.Rounds, base.Stats.Rounds)
		}
		if res.Palette <= prevPalette {
			t.Fatalf("x=%d: palette %d did not increase from %d", x, res.Palette, prevPalette)
		}
		prevPalette = res.Palette
	}
}

func TestIntegrationOursBeatsPreviousRounds(t *testing.T) {
	// The headline comparison of Table 1 at x=1: same color regime (4Δ vs
	// (4+ε)Δ) but our balanced parameter choice must finish in fewer rounds.
	for _, delta := range []int{27, 64} {
		g, err := gen.NearRegular(8*delta, delta, 77)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := Run(context.Background(), g, AlgoEdgeStar, Params{"x": 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prevColors, prevStats, err := runBE11(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.EdgeColoring(g, prevColors, int64(5*g.MaxDegree())); err != nil {
			t.Fatal(err)
		}
		if ours.Stats.Rounds >= prevStats.Rounds {
			t.Fatalf("Δ=%d: ours %d rounds not below previous %d", delta, ours.Stats.Rounds, prevStats.Rounds)
		}
	}
}

func TestIntegrationSparseBeatsClassicColorsAtScale(t *testing.T) {
	// Section 5 headline: for a ≪ Δ the sparse pipeline uses fewer colors
	// than 2Δ−1 while the classical baseline burns far more rounds.
	g, err := gen.ForestUnionHub(900, 2, 400, 13)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sparse, err := Run(ctx, g, AlgoEdgeSparse52, Params{"arboricity": 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Run(ctx, g, AlgoEdgeGreedy, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Palette >= classic.Palette {
		t.Fatalf("sparse palette %d not below classic %d", sparse.Palette, classic.Palette)
	}
	if sparse.Stats.Rounds >= classic.Stats.Rounds {
		t.Fatalf("sparse rounds %d not below classic %d", sparse.Stats.Rounds, classic.Stats.Rounds)
	}
}

func TestIntegrationDeterminismAcrossRuns(t *testing.T) {
	g, err := gen.NearRegular(160, 12, 31)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := Run(ctx, g, AlgoEdgeStar, Params{"x": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := Run(ctx, g, AlgoEdgeStar, Params{"x": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Colors {
		if a.Colors[e] != bres.Colors[e] {
			t.Fatal("two identical runs disagreed")
		}
	}
	if a.Stats != bres.Stats {
		t.Fatal("stats of identical runs disagreed")
	}
}

// runBE11 exposes the baseline through a tiny wrapper so the integration
// test reads naturally.
func runBE11(g *graph.Graph, x int) ([]int64, Stats, error) {
	res, err := be11Edge(g, x)
	if err != nil {
		return nil, Stats{}, err
	}
	return res.colors, res.stats, nil
}

type be11Result struct {
	colors []int64
	stats  Stats
}

func be11Edge(g *graph.Graph, x int) (*be11Result, error) {
	r, err := baselineBE11(g, x)
	if err != nil {
		return nil, err
	}
	return &be11Result{colors: r.Colors, stats: r.Stats}, nil
}

func ExampleRun_cd() {
	// Edge-color a graph by CD-vertex-coloring its line graph (D = 2).
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g, _ := b.Build()
	lg, cover, _ := LineCover(g)
	res, _ := Run(context.Background(), lg, AlgoVertexCD, Params{"x": 1}, Options{Cover: cover})
	fmt.Println(CheckVertexColoring(lg, res.Colors, res.Palette) == nil)
	// Output: true
}

func ExampleRun_sparse() {
	// A star has arboricity 1: the sparse pipeline colors it with Δ+O(1)
	// colors (here Δ=9, palette bound Δ+3θ−2 with θ=3).
	b := NewBuilder(10)
	for v := 1; v < 10; v++ {
		b.AddEdge(0, v)
	}
	g, _ := b.Build()
	res, _ := Run(context.Background(), g, AlgoEdgeSparse, Params{"arboricity": 1}, Options{})
	fmt.Println(CheckEdgeColoring(g, res.Colors, res.Palette) == nil, res.Palette <= 16)
	// Output: true true
}

func ExampleRun_star() {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 4)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g, _ := b.Build()
	res, _ := Run(context.Background(), g, AlgoEdgeStar, Params{"x": 1}, Options{})
	fmt.Println(CheckEdgeColoring(g, res.Colors, res.Palette) == nil)
	// Output: true
}
