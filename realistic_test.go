package distcolor

// Workload tests on the "realistic" generator families: heavy-tailed
// preferential-attachment graphs (the a ≪ Δ regime arising in practice) and
// regular bipartite graphs (where König's theorem pins the optimum at Δ).

import (
	"context"
	"testing"

	"repro/internal/gen"
)

func TestSparsePipelineOnPreferentialAttachment(t *testing.T) {
	g, err := gen.PreferentialAttachment(2000, 3, 2017)
	if err != nil {
		t.Fatal(err)
	}
	a := ArboricityUpperBound(g) // ≤ m = 3 by construction
	if a > 3 {
		t.Fatalf("arboricity estimate %d exceeds attachment parameter", a)
	}
	res, err := Run(context.Background(), g, AlgoEdgeSparse, Params{"arboricity": float64(a)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// Δ ≫ a on this family, so the sparse pipeline must beat 2Δ−1.
	if res.Palette >= int64(2*g.MaxDegree()-1) {
		t.Fatalf("palette %d not below 2Δ−1 = %d (Δ=%d, a=%d)",
			res.Palette, 2*g.MaxDegree()-1, g.MaxDegree(), a)
	}
}

func TestStarOnRegularBipartite(t *testing.T) {
	g, err := gen.RegularBipartite(128, 16, 2017)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, AlgoEdgeStar, Params{"x": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// König: optimum is Δ; the 4Δ guarantee leaves a factor ≤ 4.
	if res.Palette > int64(4*g.MaxDegree()) {
		t.Fatalf("palette %d exceeds 4Δ", res.Palette)
	}
}

func TestSparseOnCaterpillar(t *testing.T) {
	// Extreme a ≪ Δ: a tree (a=1) with Δ = 66.
	g := gen.Caterpillar(30, 64)
	res, err := Run(context.Background(), g, AlgoEdgeSparse52, Params{"arboricity": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// Δ + 3θ − 2 with θ = 3: Δ+7 — essentially optimal.
	if res.Palette > int64(g.MaxDegree()+8) {
		t.Fatalf("palette %d far from Δ+O(1) on a tree (Δ=%d)", res.Palette, g.MaxDegree())
	}
}
