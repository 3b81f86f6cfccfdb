package cd

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
	"repro/internal/verify"
)

// lineInstance builds the canonical diversity-2 instance: a line graph of a
// random graph with its star cover.
func lineInstance(t *testing.T, seed int64, n int, p float64) (*graph.Graph, *cliques.Cover) {
	t.Helper()
	lg, cov, err := cliques.LineCover(gen.GNP(n, p, seed))
	if err != nil {
		t.Fatal(err)
	}
	return lg, cov
}

// hyperInstance builds a diversity-c instance from a c-uniform hypergraph.
func hyperInstance(t *testing.T, seed int64, nv, rank, ne int) (*graph.Graph, *cliques.Cover) {
	t.Helper()
	h, err := gen.UniformHypergraph(nv, rank, ne, seed)
	if err != nil {
		t.Fatal(err)
	}
	lg, cov, err := cliques.HypergraphLineCover(h)
	if err != nil {
		t.Fatal(err)
	}
	return lg, cov
}

func TestColorLineGraphX1(t *testing.T) {
	g, cov := lineInstance(t, 3, 30, 0.25)
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	res, err := Color(context.Background(), g, cov, ChooseT(s, 1), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// Theorem 3.2: palette ≤ D²·S.
	bound := int64(d) * int64(d) * int64(s)
	if res.Palette > bound {
		t.Fatalf("palette %d exceeds D²S = %d", res.Palette, bound)
	}
	if res.Stats.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestColorDepths(t *testing.T) {
	g, cov := lineInstance(t, 7, 40, 0.2)
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	for x := 0; x <= 3; x++ {
		res, err := Color(context.Background(), g, cov, ChooseT(s, x), x, Options{})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		bound := int64(s)
		for i := 0; i <= x; i++ {
			bound *= int64(d)
		}
		if res.Palette > bound {
			t.Fatalf("x=%d: palette %d exceeds D^%d·S = %d", x, res.Palette, x+1, bound)
		}
	}
}

// TestColorPastSingletonCliques runs CD far deeper than the levels at
// which its cliques shrink to single vertices. Those levels have no edges
// and add nothing to the palette, so every deeper run returns the colors,
// palette and Stats of the shallowest depth that reaches them, with no
// final trim.
func TestColorPastSingletonCliques(t *testing.T) {
	line, lineCov := lineInstance(t, 5, 40, 0.2)
	dg, dCliques, err := gen.BoundedDiversityCliqueGraph(60, 40, 6, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dCov, err := cliques.NewCover(dg, dCliques)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		cov     *cliques.Cover
		xs      []int // the first reaches singleton cliques
		palette int64
	}{
		{"line-gnp40", line, lineCov, []int{4, 12, 30}, 81},
		{"cliques-D5-S6", dg, dCov, []int{3, 20, 30}, 216},
	} {
		var want *Result
		for _, x := range c.xs {
			res, err := Color(context.Background(), c.g, c.cov, ChooseT(c.cov.MaxCliqueSize(), x), x, Options{})
			if err != nil {
				t.Fatalf("%s x=%d: %v", c.name, x, err)
			}
			if err := verify.VertexColoring(c.g, res.Colors, res.Palette); err != nil {
				t.Fatalf("%s x=%d: %v", c.name, x, err)
			}
			if res.Palette != c.palette || res.Declared != c.palette {
				t.Fatalf("%s x=%d: palette %d declared %d, want %d", c.name, x, res.Palette, res.Declared, c.palette)
			}
			if want == nil {
				want = res
			} else if !slices.Equal(res.Colors, want.Colors) || res.Stats != want.Stats {
				t.Fatalf("%s x=%d: Stats %+v, want x=%d's %+v (or colors differ)", c.name, x, res.Stats, c.xs[0], want.Stats)
			}
		}
	}
}

func TestColorHypergraphDiversity3(t *testing.T) {
	g, cov := hyperInstance(t, 11, 60, 3, 90)
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	if d > 3 {
		t.Fatalf("hypergraph line cover diversity %d > rank 3", d)
	}
	for x := 1; x <= 2; x++ {
		res, err := Color(context.Background(), g, cov, ChooseT(s, x), x, Options{})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		bound := int64(s)
		for i := 0; i <= x; i++ {
			bound *= int64(d)
		}
		if res.Palette > bound {
			t.Fatalf("x=%d: palette %d exceeds bound %d", x, res.Palette, bound)
		}
	}
}

func TestColorGeneralCoverGraph(t *testing.T) {
	g, lists, err := gen.BoundedDiversityCliqueGraph(120, 50, 8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := cliques.NewCover(g, lists)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(context.Background(), g, cov, ChooseT(cov.MaxCliqueSize(), 1), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestColorParameterValidation(t *testing.T) {
	g, cov := lineInstance(t, 5, 20, 0.3)
	if _, err := Color(context.Background(), g, cov, 1, 1, Options{}); err == nil {
		t.Fatal("expected t<2 error")
	}
	if _, err := Color(context.Background(), g, cov, 2, -1, Options{}); err == nil {
		t.Fatal("expected x<0 error")
	}
}

// TestColorRefusesPaletteOverflow runs CD on K128 beside a 550-leaf star,
// covered by the K128 and the star's 550 edges (D = 550, S = 128). With
// t = 2 every level multiplies the palette by γ = 551: at x = 6 and 7 the
// declared palette, 551⁷, is beyond int64, and Color refuses the run; at
// x = 5 it is 551⁵·1651 and the coloring is proper.
func TestColorRefusesPaletteOverflow(t *testing.T) {
	const k, leaves = 128, 550
	b := graph.NewBuilder(k + 1 + leaves)
	clique := make([]int32, k)
	for u := 0; u < k; u++ {
		clique[u] = int32(u)
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
		}
	}
	lists := [][]int32{clique}
	for i := 1; i <= leaves; i++ {
		b.AddEdge(k, k+i)
		lists = append(lists, []int32{k, int32(k + i)})
	}
	g := b.MustBuild()
	cov, err := cliques.NewCover(g, lists)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Diversity() != leaves || cov.MaxCliqueSize() != k {
		t.Fatalf("cover D=%d S=%d, want %d and %d", cov.Diversity(), cov.MaxCliqueSize(), leaves, k)
	}
	for _, x := range []int{6, 7} {
		rounds := 0
		eng := sim.Instrumented(sim.Sequential, func(sim.RoundEvent) { rounds++ }, 0)
		_, err := Color(context.Background(), g, cov, ChooseT(k, x), x, Options{Exec: eng})
		if err == nil || !strings.Contains(err.Error(), "declared palette overflows int64") {
			t.Fatalf("x=%d: err %v, want the palette overflow", x, err)
		}
		if rounds != 0 {
			t.Fatalf("x=%d: %d rounds ran before the overflow was refused", x, rounds)
		}
	}
	res, err := Color(context.Background(), g, cov, ChooseT(k, 5), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette != 83_850_386_256_316_901 {
		t.Fatalf("x=5: palette %d, want 551⁵·1651 = 83850386256316901", res.Palette)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestColorEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(7).MustBuild()
	cov, err := cliques.NewCover(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(context.Background(), g, cov, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette != 1 {
		t.Fatalf("edgeless palette %d", res.Palette)
	}
}

func TestChooseT(t *testing.T) {
	if ChooseT(100, 1) != 10 {
		t.Fatalf("ChooseT(100,1) = %d, want 10", ChooseT(100, 1))
	}
	if ChooseT(100, 2) != max(2, util.IRoot(100, 3)) {
		t.Fatal("ChooseT(100,2) wrong")
	}
	if ChooseT(3, 5) != 2 {
		t.Fatal("ChooseT must clamp to 2")
	}
	if ChooseT(1, 1) != 2 {
		t.Fatal("ChooseT must clamp degenerate S")
	}
}

func TestDeclaredPalette(t *testing.T) {
	// x=0: direct formula.
	if DeclaredPalette(2, 10, 3, 0) != 19 {
		t.Fatalf("got %d", DeclaredPalette(2, 10, 3, 0))
	}
	// x=1: γ=2(3−1)+1=5 times P(⌈10/3⌉=4, 0) = 2·3+1 = 7 → 35.
	if DeclaredPalette(2, 10, 3, 1) != 35 {
		t.Fatalf("got %d", DeclaredPalette(2, 10, 3, 1))
	}
	// x=5: the cliques shrink 10 → 4 → 2 → 1 in three levels, and the two
	// levels past them add nothing: 5³ = 125.
	if DeclaredPalette(2, 10, 3, 5) != 125 {
		t.Fatalf("got %d", DeclaredPalette(2, 10, 3, 5))
	}
	// D = 550, S = 128, t = 2: 551⁷ saturates at math.MaxInt64.
	if got := DeclaredPalette(550, 128, 2, 7); got != math.MaxInt64 {
		t.Fatalf("got %d, want saturation at %d", got, int64(math.MaxInt64))
	}
}

func TestTrimAblation(t *testing.T) {
	g, cov := lineInstance(t, 13, 35, 0.3)
	s := cov.MaxCliqueSize()
	// Pick parameters that force declared > bound so the trim matters:
	// large t at x=1 gives declared ≈ (D(t−1)+1)(D(⌈s/t⌉−1)+1).
	tt := max(2, s-1)
	with, err := Color(context.Background(), g, cov, tt, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Color(context.Background(), g, cov, tt, 1, Options{SkipTrim: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, without.Colors, without.Declared); err != nil {
		t.Fatal(err)
	}
	if with.Palette > with.Bound {
		t.Fatalf("trimmed palette %d above bound %d", with.Palette, with.Bound)
	}
	if without.Declared > without.Bound && without.Palette <= without.Bound {
		t.Fatal("SkipTrim should leave the declared palette")
	}
}

func TestColorQuick(t *testing.T) {
	f := func(seed int64) bool {
		lg, cov, err := cliques.LineCover(gen.GNP(18, 0.3, seed))
		if err != nil {
			return false
		}
		if cov.MaxCliqueSize() < 2 {
			return true
		}
		res, err := Color(context.Background(), lg, cov, 2, 1, Options{})
		if err != nil {
			return false
		}
		d, s := cov.Diversity(), cov.MaxCliqueSize()
		bound := int64(d) * int64(d) * int64(s)
		return verify.VertexColoring(lg, res.Colors, res.Palette) == nil && res.Palette <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEnginesAgreeOnCD(t *testing.T) {
	g, cov := lineInstance(t, 21, 25, 0.3)
	r1, err := Color(context.Background(), g, cov, 2, 1, Options{Exec: sim.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Color(context.Background(), g, cov, 2, 1, Options{Exec: sim.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Colors {
		if r1.Colors[v] != r2.Colors[v] {
			t.Fatal("engines disagree")
		}
	}
	if r1.Stats != r2.Stats {
		t.Fatal("stats disagree")
	}
}

// TestBlackBoxRunsOnExec pins that the coloring black box runs on the
// engine passed as Exec: an instrumented engine given as Exec alone must
// observe every round it observes when given as VC.Exec too.
func TestBlackBoxRunsOnExec(t *testing.T) {
	g, cov := lineInstance(t, 21, 25, 0.3)
	observed := func(withVC bool) int {
		rounds := 0
		eng := sim.Instrumented(sim.Sequential, func(sim.RoundEvent) { rounds++ }, 0)
		opt := Options{Exec: eng}
		if withVC {
			opt.VC.Exec = eng
		}
		if _, err := Color(context.Background(), g, cov, 2, 1, opt); err != nil {
			t.Fatal(err)
		}
		return rounds
	}
	if alone, both := observed(false), observed(true); alone != both {
		t.Fatalf("engine passed as Exec observed %d rounds, as Exec and VC.Exec %d", alone, both)
	}
}
