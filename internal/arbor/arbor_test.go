package arbor

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/verify"
)

// bounded returns a graph with arboricity ≤ a+1 and Δ ≈ hub, plus the
// arboricity bound to use.
func bounded(t *testing.T, n, a, hub int, seed int64) (*graph.Graph, int) {
	t.Helper()
	g, err := gen.ForestUnionHub(n, a, hub, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, a + 1
}

func TestHPartition(t *testing.T) {
	g, a := bounded(t, 400, 3, 150, 7)
	theta := Threshold(a, 3)
	hp, err := HPartition(context.Background(), sim.Sequential, g, theta)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.HPartition(g, hp.Part, hp.NumParts, theta); err != nil {
		t.Fatal(err)
	}
	if err := verify.AcyclicOrientation(hp.Orient, theta); err != nil {
		t.Fatal(err)
	}
	// O(log n) parts for q=3: generous bound 4·log₂n.
	logn := 1
	for v := g.N(); v > 1; v >>= 1 {
		logn++
	}
	if hp.NumParts > 4*logn {
		t.Fatalf("%d parts for n=%d (expected O(log n))", hp.NumParts, g.N())
	}
	if hp.Stats.Rounds != hp.NumParts+1 {
		t.Fatalf("peeling rounds %d, want parts+1 = %d", hp.Stats.Rounds, hp.NumParts+1)
	}
}

// TestHPartitionEnginesAgree runs the peeling on 600 vertices, above two
// shards' worth (sim's step grain is 256), so the parallel engine steps
// several shards concurrently wherever there are CPUs for them. A tight
// threshold on a preferential-attachment graph peels over five phases, a
// quarter of the vertices after the first, so a step that reads another
// vertex's part slot mid-round diverges between step orders.
func TestHPartitionEnginesAgree(t *testing.T) {
	g, err := gen.PreferentialAttachment(600, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	const theta = 5
	want, err := HPartition(context.Background(), sim.Sequential, g, theta)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.ReverseSequential, sim.Parallel} {
		got, err := HPartition(context.Background(), eng, g, theta)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats || got.NumParts != want.NumParts {
			t.Fatalf("engine %d: stats %+v with %d parts, sequential %+v with %d", eng, got.Stats, got.NumParts, want.Stats, want.NumParts)
		}
		for v := range want.Part {
			if got.Part[v] != want.Part[v] {
				t.Fatalf("engine %d: part of vertex %d differs", eng, v)
			}
		}
	}
}

// TestHPartitionAllocsIndependentOfN pins "no per-vertex objects": a whole
// HPartition run allocates the same number of heap objects on 1k and on
// 8k vertices.
func TestHPartitionAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		g, a := bounded(t, n, 3, 150, 7)
		theta := Threshold(a, 3)
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			if _, err := HPartition(context.Background(), sim.Sequential, g, theta); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("HPartition allocates %.1f objects on 1k vertices and %.1f on 8k: some allocation is per vertex", small, large)
	}
}

func TestHPartitionTooSmallThresholdErrors(t *testing.T) {
	// K10 has arboricity 5; threshold 1 cannot peel anything after the
	// first phase check.
	_, err := HPartition(context.Background(), sim.Sequential, graph.Complete(10), 1)
	if !errors.Is(err, sim.ErrRoundLimit) {
		t.Fatalf("want round-limit error, got %v", err)
	}
}

func TestHPartitionValidation(t *testing.T) {
	if _, err := HPartition(context.Background(), sim.Sequential, graph.Path(3), 0); err == nil {
		t.Fatal("expected threshold error")
	}
}

func TestMergeBipartite(t *testing.T) {
	// Complete bipartite K_{4,6}: A side degree 6... use A = small side with
	// D=6, B side; no precolored edges; palette Δ(B)+D−1 = 4+6−1 = 9.
	g := graph.CompleteBipartite(4, 6)
	roleA := make([]bool, 10)
	roleB := make([]bool, 10)
	for v := 0; v < 4; v++ {
		roleA[v] = true
	}
	for v := 4; v < 10; v++ {
		roleB[v] = true
	}
	colors := make([]int64, g.M())
	for e := range colors {
		colors[e] = -1
	}
	res, err := Merge(context.Background(), sim.Sequential, MergeSpec{
		G: g, RoleA: roleA, RoleB: roleB, EdgeColors: colors, D: 6, Palette: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assigned != g.M() {
		t.Fatalf("assigned %d of %d edges", res.Assigned, g.M())
	}
	if err := verify.EdgeColoring(g, colors, 9); err != nil {
		t.Fatal(err)
	}
	// 2D+2 round schedule.
	if res.Stats.Rounds > 2*6+2 {
		t.Fatalf("merge took %d rounds, bound %d", res.Stats.Rounds, 2*6+2)
	}
}

func TestMergeRespectsPrecoloredEdges(t *testing.T) {
	// Path A-B with an A-internal precolored edge: 0-1 (A,A) colored 0;
	// 1-2 crossing; 2 in B.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	colors := []int64{0, -1}
	roleA := []bool{true, true, false}
	roleB := []bool{false, false, true}
	_, err := Merge(context.Background(), sim.Sequential, MergeSpec{
		G: g, RoleA: roleA, RoleB: roleB, EdgeColors: colors, D: 1, Palette: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if colors[1] == 0 {
		t.Fatal("crossing edge reused the A-internal color at the shared vertex")
	}
	if colors[1] < 0 || colors[1] >= 4 {
		t.Fatalf("crossing color %d out of palette", colors[1])
	}
}

func TestMergeValidation(t *testing.T) {
	g := graph.Path(3)
	col := []int64{-1, -1}
	both := []bool{true, true, true}
	if _, err := Merge(context.Background(), sim.Sequential, MergeSpec{G: g, RoleA: both, RoleB: both, EdgeColors: col, D: 1, Palette: 3}); err == nil {
		t.Fatal("expected both-roles error")
	}
	if _, err := Merge(context.Background(), sim.Sequential, MergeSpec{G: g, RoleA: []bool{true}, RoleB: both, EdgeColors: col, D: 1, Palette: 3}); err == nil {
		t.Fatal("expected role length error")
	}
	if _, err := Merge(context.Background(), sim.Sequential, MergeSpec{G: g, RoleA: make([]bool, 3), RoleB: make([]bool, 3), EdgeColors: []int64{0}, D: 1, Palette: 3}); err == nil {
		t.Fatal("expected edge color length error")
	}
}

func TestMergeDegreeBoundViolation(t *testing.T) {
	// A-vertex with 3 crossing edges but D=2 must error cleanly.
	g := graph.Star(4)
	roleA := []bool{true, false, false, false}
	roleB := []bool{false, true, true, true}
	colors := []int64{-1, -1, -1}
	_, err := Merge(context.Background(), sim.Sequential, MergeSpec{G: g, RoleA: roleA, RoleB: roleB, EdgeColors: colors, D: 2, Palette: 10})
	if err == nil {
		t.Fatal("expected crossing-degree error")
	}
}

// TestMergeErrorsOnEveryEngine pins Merge's errors, text and all, on
// every engine. The graphs have 600 vertices, two shards' worth, with the
// A side and the B side in different shards. In the first case an
// A-vertex has 3 crossing edges under D = 2 and fails in round 1. In the
// others two A-vertices each offer two edges, labels 1 and 2, to the same
// two B-vertices, and the second B-vertex, whose edge to an idle vertex is
// precolored 0, runs out of colors on its second label-2 offer: Palette 2
// is below Δ_B + D − 1 = 4. That B-vertex halts in round 4 with no free
// color, and the A-vertex it did not answer must be stepped in round 5 to
// find its reply missing. Merge reports the error of the lower vertex, so
// the two cases differ only in which side has the low identifiers.
func TestMergeErrorsOnEveryEngine(t *testing.T) {
	const n = 600
	spec := func(edges [][2]int, as, bs []int, d int, palette int64) MergeSpec {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g := b.MustBuild()
		s := MergeSpec{G: g, RoleA: make([]bool, n), RoleB: make([]bool, n), EdgeColors: make([]int64, g.M()), D: d, Palette: palette}
		for e := range s.EdgeColors {
			s.EdgeColors[e] = -1
		}
		for _, v := range as {
			s.RoleA[v] = true
		}
		for _, v := range bs {
			s.RoleB[v] = true
		}
		return s
	}
	// square: A-vertices a1, a2 and B-vertices b1, b2 joined by all four
	// edges, and b2's edge to idle colored 0.
	square := func(a1, a2, b1, b2, idle int) MergeSpec {
		s := spec([][2]int{{a1, b1}, {a1, b2}, {a2, b1}, {a2, b2}, {b2, idle}}, []int{a1, a2}, []int{b1, b2}, 2, 2)
		for _, a := range s.G.Adj(b2) {
			if int(a.To) == idle {
				s.EdgeColors[a.Edge] = 0
			}
		}
		return s
	}
	cases := []struct {
		name string
		spec MergeSpec
		want string
	}{
		{"crossing-degree", spec([][2]int{{0, 300}, {0, 400}, {0, 500}}, []int{0}, []int{300, 400, 500}, 2, 10),
			"arbor: merge: vertex 0 has 3 crossing edges, bound D=2"},
		{"missing-reply", square(10, 20, 500, 510, 520), "arbor: merge: vertex 20 missing reply for label 2"},
		{"no-free-color", square(500, 510, 10, 20, 30), "arbor: merge: vertex 20 found no free color below 2"},
	}
	for _, c := range cases {
		initial := append([]int64(nil), c.spec.EdgeColors...)
		for _, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential, sim.Parallel} {
			copy(c.spec.EdgeColors, initial)
			_, err := Merge(context.Background(), eng, c.spec)
			if err == nil || err.Error() != c.want {
				t.Fatalf("%s on engine %d: error %v, want %q", c.name, eng, err, c.want)
			}
		}
	}
}

func TestColorHPartition(t *testing.T) {
	g, a := bounded(t, 500, 3, 200, 3)
	res, err := ColorHPartition(context.Background(), g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// Theorem 5.2: Δ + O(a) colors — exactly Δ + 3θ − 2 with θ = ⌈q·a⌉.
	want := Palette52(g.MaxDegree(), a, 3)
	if res.Palette != want {
		t.Fatalf("palette %d, want %d", res.Palette, want)
	}
	// Sanity: far below the greedy 2Δ−1 when a ≪ Δ.
	if res.Palette >= int64(2*g.MaxDegree()-1) {
		t.Fatalf("palette %d not better than 2Δ−1 = %d", res.Palette, 2*g.MaxDegree()-1)
	}
}

// TestInternalThenCrossing drives Theorem 5.2's skeleton, ColorParts, in
// both of its layouts on a graph of three parts. In ColorHPartition's
// (base = palette = Δ+θ−1) every part-internal edge lands in
// [base, base+2θ−1) and every crossing edge in [0, palette); in the [4]
// baseline's (base 0, palette 2Δ−1) the internal edges stay below 2θ−1 and
// every edge below 2Δ−1; both colorings are proper. Internal keeps
// exactly the same-part edges, with degree ≤ θ, and ColorCrossing rejects
// an edge left at −1 with no crossing stage to fill it.
func TestInternalThenCrossing(t *testing.T) {
	ctx := context.Background()
	g, a := bounded(t, 600, 2, 240, 23)
	theta := Threshold(a, 3)
	hp, err := HPartition(ctx, sim.Sequential, g, theta)
	if err != nil {
		t.Fatal(err)
	}
	if hp.NumParts < 3 {
		t.Fatalf("%d parts, want at least 3", hp.NumParts)
	}
	internal := hp.Internal(g)
	if internal.G.MaxDegree() > theta {
		t.Fatalf("internal degree %d exceeds θ=%d", internal.G.MaxDegree(), theta)
	}
	kept := make([]bool, g.M())
	for _, e := range internal.EOrig {
		kept[e] = true
	}
	for e := range kept {
		u, v := g.Endpoints(e)
		if kept[e] != (hp.Part[u] == hp.Part[v]) {
			t.Fatalf("edge %d {%d,%d}: kept=%v with parts %d,%d", e, u, v, kept[e], hp.Part[u], hp.Part[v])
		}
	}

	delta, block := int64(g.MaxDegree()), int64(2*theta-1)
	crossPal := delta + int64(theta) - 1
	for _, l := range []struct {
		name                 string
		base, palette, bound int64
	}{
		{"thm5.2", crossPal, crossPal, crossPal + block},
		{"be08", 0, 2*delta - 1, 2*delta - 1},
	} {
		res, err := ColorParts(ctx, g, theta, l.base, l.palette, Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if res.Parts != hp.NumParts {
			t.Fatalf("%s: %d parts, H-partition has %d", l.name, res.Parts, hp.NumParts)
		}
		for e, c := range res.Colors {
			if kept[e] && (c < l.base || c >= l.base+block) {
				t.Fatalf("%s: internal edge %d colored %d outside [%d,%d)", l.name, e, c, l.base, l.base+block)
			}
			if !kept[e] && (c < 0 || c >= l.palette) {
				t.Fatalf("%s: crossing edge %d colored %d outside [0,%d)", l.name, e, c, l.palette)
			}
		}
		if err := verify.EdgeColoring(g, res.Colors, l.bound); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
	}

	one := &HPartitionResult{Part: make([]int, 2), NumParts: 1, Threshold: 1}
	if _, err := ColorCrossing(ctx, sim.Sequential, graph.Path(2), one, []int64{-1}, 1); err == nil {
		t.Fatal("an uncolored edge was accepted")
	}
}

func TestColorHPartitionOnConstantArboricity(t *testing.T) {
	for name, tc := range map[string]struct {
		g *graph.Graph
		a int
	}{
		"grid": {gen.Grid(20, 25), 2},
		"tree": {gen.Tree(300, 5), 1},
	} {
		res, err := ColorHPartition(context.Background(), tc.g, tc.a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.EdgeColoring(tc.g, res.Colors, res.Palette); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestColorSqrt(t *testing.T) {
	g, a := bounded(t, 600, 2, 250, 11)
	res, err := ColorSqrt(context.Background(), g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if want := Palette53(g.MaxDegree(), a, 3); res.Palette != want {
		t.Fatalf("palette %d, want declared %d", res.Palette, want)
	}
}

func TestColorSqrtBeatsGreedyAtScale(t *testing.T) {
	// The Δ+O(√(Δa)) bound only dominates 2Δ−1 once the additive O(√(Δa))
	// term is genuinely sublinear: use a single tree plus a large hub
	// (arboricity bound 2, Δ ≈ 4000) and the paper's lean q = 2+ε.
	g, a := bounded(t, 4500, 1, 4000, 11)
	res, err := ColorSqrt(context.Background(), g, a, Options{Q: 2.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	delta := int64(g.MaxDegree())
	if res.Palette >= 2*delta-1 {
		t.Fatalf("palette %d not sublinear vs 2Δ−1=%d", res.Palette, 2*delta-1)
	}
}

func TestColorRecursive(t *testing.T) {
	g, a := bounded(t, 500, 2, 180, 13)
	for _, x := range []int{1, 2, 3} {
		res, err := ColorRecursive(context.Background(), g, a, x, Options{})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if want := Palette54(g.MaxDegree(), a, 3, x); res.Palette > want {
			t.Fatalf("x=%d: palette %d exceeds declared %d", x, res.Palette, want)
		}
	}
}

func TestColorRecursiveValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := ColorRecursive(context.Background(), g, 1, 0, Options{}); err == nil {
		t.Fatal("expected x<1 error")
	}
}

func TestEmptyGraphs(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	if res, err := ColorHPartition(context.Background(), g, 1, Options{}); err != nil || res.Palette != 1 {
		t.Fatal("empty 5.2 failed")
	}
	if res, err := ColorSqrt(context.Background(), g, 1, Options{}); err != nil || res.Palette != 1 {
		t.Fatal("empty 5.3 failed")
	}
	if res, err := ColorRecursive(context.Background(), g, 1, 2, Options{}); err != nil || res.Palette != 1 {
		t.Fatal("empty 5.4 failed")
	}
}

func TestDeclaredDeltaValidation(t *testing.T) {
	g := graph.Complete(6)
	if _, err := ColorHPartition(context.Background(), g, 3, Options{declaredDelta: 2}); err == nil {
		t.Fatal("expected declared<actual error")
	}
}

func TestAdaptivePicksSmallPalette(t *testing.T) {
	g, a := bounded(t, 600, 2, 250, 17)
	res, plan, err := ColorAdaptive(context.Background(), g, a, Options{})
	if err != nil {
		t.Fatalf("plan %s: %v", plan.Name, err)
	}
	if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	// The adaptive choice must be at least as good as both fixed choices.
	if res.Palette > Palette52(g.MaxDegree(), a, 3) || res.Palette > Palette53(g.MaxDegree(), a, 3) {
		t.Fatalf("adaptive palette %d worse than fixed plans", res.Palette)
	}
	// Corollary 5.5 regime: comfortably below 2Δ−1 and within 2Δ of Δ.
	delta := int64(g.MaxDegree())
	if res.Palette >= 2*delta-1 {
		t.Fatalf("adaptive palette %d has no advantage (Δ=%d)", res.Palette, delta)
	}
}

func TestPlansEnumerate(t *testing.T) {
	plans := Plans(1000, 2, 3)
	if len(plans) < 3 {
		t.Fatalf("expected several plans, got %d", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.Name] {
			t.Fatalf("duplicate plan %s", p.Name)
		}
		seen[p.Name] = true
		if p.Palette < 1 {
			t.Fatalf("plan %s has invalid palette %d", p.Name, p.Palette)
		}
	}
	if !seen["thm5.2"] || !seen["thm5.3"] {
		t.Fatal("fixed plans missing")
	}
}

// TestPalettesSaturate: the Section 5 palettes saturate at math.MaxInt64
// instead of wrapping negative, so a plan never lists a wrapped palette
// and BestPlan never picks one, and the plans carry the q they were
// made for.
func TestPalettesSaturate(t *testing.T) {
	if p := Palette53(24, 1, 1e9); p != math.MaxInt64 {
		t.Fatalf("Palette53(24, 1, 1e9) = %d, want saturated", p)
	}
	if p := Palette54(24, 1<<30, 1e9, 2); p != math.MaxInt64 {
		t.Fatalf("Palette54(24, 2^30, 1e9, 2) = %d, want saturated", p)
	}
	for _, p := range Plans(24, 1<<30, 1e9) {
		if p.Palette < 1 || p.Q != 1e9 {
			t.Fatalf("plan %s: palette %d at q=%g", p.Name, p.Palette, p.Q)
		}
	}
	if best := BestPlan(24, 1, 1e9); best.Name != "thm5.2" || best.Palette != Palette52(24, 1, 1e9) {
		t.Fatalf("best plan at q=1e9 is %s with palette %d, want thm5.2", best.Name, best.Palette)
	}
	if best := BestPlan(24, 1, 0); best.Q != 3 {
		t.Fatalf("q=0 planned at q=%g, want the default 3", best.Q)
	}
}

func TestPalette53BeatsNaiveForBigGap(t *testing.T) {
	// For a ≪ Δ the 5.3 palette must be Δ + o(Δ): check the additive term
	// shrinks relative to Δ as Δ grows with a fixed.
	a := 2
	prevRatio := 10.0
	for _, delta := range []int{100, 1000, 10000, 100000} {
		p := Palette53(delta, a, 3)
		ratio := float64(p-int64(delta)) / float64(delta)
		if ratio >= prevRatio {
			t.Fatalf("Δ=%d: o(Δ) term ratio %.3f did not shrink (prev %.3f)", delta, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio > 0.2 {
		t.Fatalf("at Δ=100000, a=2 the extra colors are %.1f%% of Δ — not o(Δ)", prevRatio*100)
	}
}

// evenOddMerge is the merge spec TestMergeQuick and the allocation pin
// run: A = even and B = odd vertices, the crossing edges uncolored, every
// other edge precolored with a distinct color out of the palette
// (100+e), D the largest crossing degree on the A side, and the palette
// Δ+D+1. It also returns the number of crossing edges.
func evenOddMerge(g *graph.Graph) (MergeSpec, int) {
	roleA := make([]bool, g.N())
	roleB := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if v%2 == 0 {
			roleA[v] = true
		} else {
			roleB[v] = true
		}
	}
	colors := make([]int64, g.M())
	crossing := 0
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if roleA[u] != roleA[v] {
			colors[e] = -1
			crossing++
		} else {
			colors[e] = int64(100 + e)
		}
	}
	d := 0
	for v := 0; v < g.N(); v += 2 {
		cnt := 0
		for _, a := range g.Adj(v) {
			if colors[a.Edge] < 0 {
				cnt++
			}
		}
		d = max(d, cnt)
	}
	spec := MergeSpec{G: g, RoleA: roleA, RoleB: roleB, EdgeColors: colors, D: d, Palette: int64(g.MaxDegree() + d + 1)}
	return spec, crossing
}

func TestMergeQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNP(24, 0.3, seed)
		spec, crossing := evenOddMerge(g)
		res, err := Merge(context.Background(), sim.Sequential, spec)
		if err != nil {
			return false
		}
		if res.Assigned != crossing {
			return false
		}
		// Properness among crossing + precolored: crossing colors are
		// < palette and distinct per vertex from everything.
		return verify.EdgeColoring(g, spec.EdgeColors, 100+int64(g.M())) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeAllocsIndependentOfN pins "no per-vertex objects" on the any
// plane: one Merge run allocates the same number of heap objects on 1k
// and on 8k vertices. The crossing palette exceeds 256, past the
// runtime's cache of boxed small integers, so a reply boxed per message
// would show, as would an object per vertex.
func TestMergeAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		g, err := gen.ForestUnionHub(n, 2, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := evenOddMerge(g)
		if spec.Palette <= 256 {
			t.Fatalf("crossing palette %d does not exceed 256", spec.Palette)
		}
		initial := append([]int64(nil), spec.EdgeColors...)
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			copy(spec.EdgeColors, initial)
			if _, err := Merge(context.Background(), sim.Sequential, spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Merge allocates %.1f objects on 1k vertices and %.1f on 8k: some allocation is per vertex or per message", small, large)
	}
}

// TestEnginesAgreeOnThm52 runs Theorem 5.2 on 600 vertices, above two
// shards' worth (sim's step grain is 256), so the parallel engine steps
// each merge stage on several shards wherever there are CPUs for them.
func TestEnginesAgreeOnThm52(t *testing.T) {
	g, a := bounded(t, 600, 2, 240, 23)
	r1, err := ColorHPartition(context.Background(), g, a, Options{Exec: sim.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Parts < 3 {
		t.Fatalf("%d parts: want at least two merge stages", r1.Parts)
	}
	r2, err := ColorHPartition(context.Background(), g, a, Options{Exec: sim.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("stats disagree: %+v / %+v", r1.Stats, r2.Stats)
	}
	for e := range r1.Colors {
		if r1.Colors[e] != r2.Colors[e] {
			t.Fatal("engines disagree")
		}
	}
}

// TestBlackBoxRunsOnExec pins that the part-internal coloring by the
// black box runs on the engine passed as Exec: an instrumented engine
// given as Exec alone must observe every round it observes when given as
// VC.Exec too.
func TestBlackBoxRunsOnExec(t *testing.T) {
	g, a := bounded(t, 600, 2, 240, 23)
	observed := func(withVC bool) int {
		rounds := 0
		eng := sim.Instrumented(sim.Sequential, func(sim.RoundEvent) { rounds++ }, 0)
		opt := Options{Exec: eng}
		if withVC {
			opt.VC.Exec = eng
		}
		if _, err := ColorHPartition(context.Background(), g, a, opt); err != nil {
			t.Fatal(err)
		}
		return rounds
	}
	if alone, both := observed(false), observed(true); alone != both {
		t.Fatalf("engine passed as Exec observed %d rounds, as Exec and VC.Exec %d", alone, both)
	}
}
