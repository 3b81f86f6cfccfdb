package star

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/verify"
)

func TestEdgeColor4Delta(t *testing.T) {
	g, err := gen.NearRegular(200, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := ChooseT(g.MaxDegree(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EdgeColor(context.Background(), g, tt, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// Theorem 4.1 at x=1: palette ≤ 4Δ.
	if want := int64(4 * g.MaxDegree()); res.Palette > want {
		t.Fatalf("palette %d exceeds 4Δ = %d", res.Palette, want)
	}
}

func TestEdgeColorDepths(t *testing.T) {
	g, err := gen.NearRegular(150, 27, 9)
	if err != nil {
		t.Fatal(err)
	}
	delta := g.MaxDegree()
	for x := 0; x <= 2; x++ {
		tt := 2
		if x > 0 {
			var errT error
			tt, errT = ChooseT(delta, x)
			if errT != nil {
				t.Skip("degenerate t for this Δ")
			}
		}
		res, err := EdgeColor(context.Background(), g, tt, x, Options{})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if res.Palette > Bound(delta, x) {
			t.Fatalf("x=%d: palette %d exceeds 2^%d·Δ = %d", x, res.Palette, x+1, Bound(delta, x))
		}
	}
}

func TestEdgeColorX0IsTwoDeltaMinus1(t *testing.T) {
	g := gen.GNP(60, 0.15, 4)
	res, err := EdgeColor(context.Background(), g, 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2*g.MaxDegree() - 1); res.Palette > want {
		t.Fatalf("x=0 palette %d exceeds 2Δ−1 = %d", res.Palette, want)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeColorStructuredGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"complete":  graph.Complete(20),
		"bipartite": graph.CompleteBipartite(12, 12),
		"star":      graph.Star(50),
		"cycle":     graph.Cycle(30),
	} {
		tt, err := ChooseT(g.MaxDegree(), 1)
		if err != nil {
			// Tiny Δ (cycle): fall back to x=0.
			res, err := EdgeColor(context.Background(), g, 2, 0, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			continue
		}
		res, err := EdgeColor(context.Background(), g, tt, 1, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Palette > Bound(g.MaxDegree(), 1) {
			t.Fatalf("%s: palette %d exceeds 4Δ", name, res.Palette)
		}
	}
}

func TestChooseTValues(t *testing.T) {
	if tt, err := ChooseT(100, 1); err != nil || tt != 10 {
		t.Fatalf("ChooseT(100,1) = %d, %v", tt, err)
	}
	if tt, err := ChooseT(64, 2); err != nil || tt != 4 {
		t.Fatalf("ChooseT(64,2) = %d, %v", tt, err)
	}
	if _, err := ChooseT(3, 3); err == nil {
		t.Fatal("expected degenerate-t error")
	}
	if _, err := ChooseT(1, 1); err == nil {
		t.Fatal("expected small-Δ error")
	}
}

func TestDeclaredPaletteFormula(t *testing.T) {
	// x=0: 2d−1.
	if DeclaredPalette(10, 3, 0) != 19 {
		t.Fatal("P(10,·,0) wrong")
	}
	// x=1, t=3: (2·3−1)·P(⌈10/3⌉=4, 0) = 5·7 = 35.
	if DeclaredPalette(10, 3, 1) != 35 {
		t.Fatal("P(10,3,1) wrong")
	}
	// Declared never exceeds bound by much for the canonical t; sanity on a
	// sweep.
	for _, delta := range []int{16, 64, 256} {
		for x := 1; x <= 3; x++ {
			tt, err := ChooseT(delta, x)
			if err != nil {
				continue
			}
			if DeclaredPalette(delta, tt, x) > 3*Bound(delta, x) {
				t.Fatalf("Δ=%d x=%d: declared %d far above bound %d", delta, x, DeclaredPalette(delta, tt, x), Bound(delta, x))
			}
		}
	}
}

func TestParameterValidation(t *testing.T) {
	g := gen.GNP(20, 0.3, 1)
	if _, err := EdgeColor(context.Background(), g, 1, 1, Options{}); err == nil {
		t.Fatal("expected t<2 error")
	}
	if _, err := EdgeColor(context.Background(), g, 2, -1, Options{}); err == nil {
		t.Fatal("expected x<0 error")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	res, err := EdgeColor(context.Background(), g, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Colors) != 0 || res.Palette != 1 {
		t.Fatal("empty graph result wrong")
	}
}

func TestEdgeColorQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNP(40, 0.2, seed)
		if g.MaxDegree() < 4 {
			return true
		}
		tt, err := ChooseT(g.MaxDegree(), 1)
		if err != nil {
			return true
		}
		res, err := EdgeColor(context.Background(), g, tt, 1, Options{})
		if err != nil {
			return false
		}
		return verify.EdgeColoring(g, res.Colors, res.Palette) == nil &&
			res.Palette <= Bound(g.MaxDegree(), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestEnginesAgree(t *testing.T) {
	g := gen.GNP(50, 0.15, 17)
	tt, err := ChooseT(g.MaxDegree(), 1)
	if err != nil {
		t.Skip("degenerate")
	}
	r1, err := EdgeColor(context.Background(), g, tt, 1, Options{Exec: sim.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EdgeColor(context.Background(), g, tt, 1, Options{Exec: sim.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	for e := range r1.Colors {
		if r1.Colors[e] != r2.Colors[e] {
			t.Fatal("engines disagree")
		}
	}
}

// TestBlackBoxRunsOnExec pins that the coloring black box runs on the
// engine passed as Exec: an instrumented engine given as Exec alone must
// observe every round it observes when given as VC.Exec too.
func TestBlackBoxRunsOnExec(t *testing.T) {
	g, err := gen.NearRegular(300, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := ChooseT(g.MaxDegree(), 1)
	if err != nil {
		t.Fatal(err)
	}
	observed := func(withVC bool) int {
		rounds := 0
		eng := sim.Instrumented(sim.Sequential, func(sim.RoundEvent) { rounds++ }, nil)
		opt := Options{Exec: eng}
		if withVC {
			opt.VC.Exec = eng
		}
		if _, err := EdgeColor(context.Background(), g, tt, 1, opt); err != nil {
			t.Fatal(err)
		}
		return rounds
	}
	if alone, both := observed(false), observed(true); alone != both {
		t.Fatalf("engine passed as Exec observed %d rounds, as Exec and VC.Exec %d", alone, both)
	}
}
