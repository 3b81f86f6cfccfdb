package baseline

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/star"
	"repro/internal/vc"
	"repro/internal/verify"
)

func TestGreedyVertex(t *testing.T) {
	g := gen.GNP(100, 0.1, 3)
	colors := GreedyVertex(g)
	if err := verify.VertexColoring(g, colors, int64(g.MaxDegree())+1); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEdge(t *testing.T) {
	g := gen.GNP(80, 0.1, 5)
	colors := GreedyEdge(g)
	if err := verify.EdgeColoring(g, colors, int64(2*g.MaxDegree()-1)); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNP(40, 0.2, seed)
		if g.M() == 0 {
			return true
		}
		return verify.VertexColoring(g, GreedyVertex(g), int64(g.MaxDegree())+1) == nil &&
			verify.EdgeColoring(g, GreedyEdge(g), int64(2*g.MaxDegree()-1)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoDeltaMinusOne(t *testing.T) {
	g := gen.GNP(60, 0.15, 7)
	res, err := TwoDeltaMinusOne(context.Background(), g, vc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Palette != int64(2*g.MaxDegree()-1) {
		t.Fatalf("palette %d, want %d", res.Palette, 2*g.MaxDegree()-1)
	}
}

func TestBE11EdgeColor(t *testing.T) {
	g, err := gen.NearRegular(300, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BE11EdgeColor(context.Background(), g, 1, star.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Declared); err != nil {
		t.Fatal(err)
	}
	if res.Declared > BE11Palette(g.MaxDegree(), 1) {
		t.Fatalf("palette %d exceeds (4+ε)Δ", res.Declared)
	}
}

func TestBE11UsesCoarserT(t *testing.T) {
	// [7]'s profile must leave strictly larger final stars than the paper's
	// choice: t smaller, k = Δ/t bigger.
	delta := 4096
	be11T, err := BE11T(delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	oursT, err := star.ChooseT(delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if be11T >= oursT {
		t.Fatalf("BE11 t=%d should be coarser than ours t=%d", be11T, oursT)
	}
}

func TestBE11VertexColor(t *testing.T) {
	base := gen.GNP(30, 0.25, 3)
	lg, cov, err := cliques.LineCover(base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BE11VertexColor(context.Background(), lg, cov, 1, cd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(lg, res.Colors, res.Declared); err != nil {
		t.Fatal(err)
	}
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	bound := int64((d*d + 1) * s)
	if res.Declared > bound {
		t.Fatalf("palette %d exceeds (D²+ε)S = %d", res.Declared, bound)
	}
}

func TestBE11Errors(t *testing.T) {
	if _, err := BE11T(4, 5); err == nil {
		t.Fatal("expected degenerate t error")
	}
	if _, err := BE11T(1, 1); err == nil {
		t.Fatal("expected small Δ error")
	}
}
