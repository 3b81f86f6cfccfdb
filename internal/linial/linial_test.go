package linial

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
	"repro/internal/verify"
)

func rg(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestScheduleShrinks(t *testing.T) {
	steps := BuildSchedule(1_000_000, 10)
	if len(steps) == 0 {
		t.Fatal("expected at least one step")
	}
	m := int64(1_000_000)
	for i, s := range steps {
		if s.Q <= s.D*10 {
			t.Fatalf("step %d: field size %d too small for dΔ=%d", i, s.Q, s.D*10)
		}
		if s.M >= m {
			t.Fatalf("step %d does not shrink palette: %d >= %d", i, s.M, m)
		}
		if !util.IsPrime(int(s.Q)) {
			t.Fatalf("step %d: q=%d not prime", i, s.Q)
		}
		m = s.M
	}
}

func TestScheduleStepsAreLogStar(t *testing.T) {
	// Number of steps should be small (log*-ish), not logarithmic: even for
	// an enormous starting palette it must stay in single digits.
	steps := BuildSchedule(1<<60, 8)
	if len(steps) > 10 {
		t.Fatalf("schedule unexpectedly long: %d steps", len(steps))
	}
}

func TestScheduleFixpointPalette(t *testing.T) {
	// Final palette must be O(Δ² log² Δ): check a generous concrete bound
	// Δ²·(log₂Δ+4)² for a range of Δ.
	for _, d := range []int{1, 2, 4, 8, 16, 64, 256} {
		final := FinalPalette(1<<40, d)
		lg := int64(util.Log2Ceil(d+1) + 4)
		bound := int64(d) * int64(d) * lg * lg
		if final > bound {
			t.Errorf("Δ=%d: final palette %d exceeds Δ²log²Δ bound %d", d, final, bound)
		}
	}
}

func TestReduceProducesProperColoring(t *testing.T) {
	g := rg(5, 120, 0.08)
	topo := sim.NewTopology(g)
	res, err := Reduce(context.Background(), sim.Sequential, topo, int64(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != len(BuildSchedule(int64(g.N()), g.MaxDegree()))+1 {
		t.Fatalf("rounds %d != schedule+1", res.Stats.Rounds)
	}
}

func TestReduceWithSeedLabels(t *testing.T) {
	g := rg(6, 100, 0.1)
	// Seed: a proper coloring with a huge palette (IDs spread out).
	seed := make([]int64, g.N())
	for v := range seed {
		seed[v] = int64(v) * 1_000_003
	}
	m0 := int64(g.N()) * 1_000_003
	topo := &sim.Topology{G: g, Labels: seed}
	res, err := Reduce(context.Background(), sim.Sequential, topo, m0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Palette >= m0 {
		t.Fatal("palette did not shrink")
	}
}

func TestReduceSeedShorterThanIDs(t *testing.T) {
	// §3 trick: starting from a small proper seed coloring takes fewer
	// steps than starting from raw IDs.
	g := rg(8, 300, 0.05)
	d := g.MaxDegree()
	small := FinalPalette(int64(g.N()), d)
	fromIDs := len(BuildSchedule(int64(g.N()), d))
	fromSeed := len(BuildSchedule(small, d))
	if fromSeed > fromIDs {
		t.Fatalf("seeded schedule longer: %d > %d", fromSeed, fromIDs)
	}
}

func TestReduceOnEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	res, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSingleColorSeed(t *testing.T) {
	// Palette of size 1 on an edgeless graph: schedule empty, nothing to do.
	g := graph.NewBuilder(3).MustBuild()
	topo := &sim.Topology{G: g, Labels: []int64{0, 0, 0}}
	res, err := Reduce(context.Background(), sim.Sequential, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette != 1 {
		t.Fatalf("palette %d", res.Palette)
	}
}

func TestReduceRejectsBadPalette(t *testing.T) {
	g := graph.Path(3)
	if _, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), 0); err == nil {
		t.Fatal("expected palette error")
	}
}

// TestReduceRejectsStartColorsOutsidePalette: a start color (seed label,
// or identifier without labels) outside [0, m0) is an error, not a result
// that silently keeps it or truncates it to fit the first step's field.
func TestReduceRejectsStartColorsOutsidePalette(t *testing.T) {
	g := graph.Path(3)
	for _, c := range []struct {
		name string
		topo *sim.Topology
		m0   int64
	}{
		{"label-above", &sim.Topology{G: g, Labels: []int64{0, 5, 0}}, 4},
		{"label-beyond-field", &sim.Topology{G: g, Labels: []int64{0, 1 << 40, 0}}, 4},
		{"id-above", sim.NewTopology(g), 2},
		{"id-negative", &sim.Topology{G: g, IDs: []int64{-1, 0, 1}}, 4},
	} {
		if res, err := Reduce(context.Background(), sim.Sequential, c.topo, c.m0); err == nil {
			t.Errorf("%s: accepted, returned colors %v palette %d", c.name, res.Colors, res.Palette)
		}
	}
}

func TestReduceQuickOverFamilies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := rg(seed, n, 0.15)
		res, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), int64(n))
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, res.Palette) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceEnginesAgree runs on 600 vertices, above two shards' worth
// (sim's step grain is 256), so the parallel engine steps several shards
// concurrently, each with its own scratch, wherever there are CPUs for
// them. Spread-out seed labels give a schedule of several steps (from
// the identifiers, m0 = 600 leaves nothing to reduce at this Δ).
func TestReduceEnginesAgree(t *testing.T) {
	g := rg(13, 600, 0.015)
	seed := make([]int64, g.N())
	for v := range seed {
		seed[v] = int64(v) * 1_000_003
	}
	topo := &sim.Topology{G: g, Labels: seed}
	m0 := int64(g.N()) * 1_000_003
	if len(BuildSchedule(m0, g.MaxDegree())) < 2 {
		t.Fatal("schedule too short to exercise the scratch")
	}
	want, err := Reduce(context.Background(), sim.Sequential, topo, m0)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.ReverseSequential, sim.Parallel} {
		got, err := Reduce(context.Background(), eng, topo, m0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats || got.Palette != want.Palette {
			t.Fatalf("engine %d disagrees on stats/palette", eng)
		}
		for v := range want.Colors {
			if got.Colors[v] != want.Colors[v] {
				t.Fatalf("engine %d disagrees at vertex %d", eng, v)
			}
		}
	}
}

// refApplyStep is the unoptimized reference of one polynomial reduction
// at a single vertex — the pre-word-plane implementation kept as the
// executable specification. The production applyStep performs the same
// computation in a shard's scratch slab; TestApplyStepMatchesReference
// pins the equivalence.
func refApplyStep(c int64, nbrColors []int64, st Step) int64 {
	d, q := st.D, st.Q
	mine := decompose(c, q, d+1)
	var nbrs [][]int64
	for _, nc := range nbrColors {
		if nc < 0 || nc == c {
			continue
		}
		nbrs = append(nbrs, decompose(nc, q, d+1))
	}
	for x := int64(0); x < q; x++ {
		val := evalPoly(mine, x, q)
		ok := true
		for _, nb := range nbrs {
			if evalPoly(nb, x, q) == val {
				ok = false
				break
			}
		}
		if ok {
			return x*q + val
		}
	}
	panic("linial_test: no evaluation point")
}

// TestApplyStepMatchesReference drives the production scratch-slab
// applyStep against the allocating reference on randomized palettes,
// degrees, and inbox patterns (including silent NoWord ports and improper
// equal-color slots): the chosen colors must be identical, and one scratch
// slab reused across cases, as a shard reuses it across the vertices it
// steps, must not leak state between them. Both of applyStep's paths run:
// the x = 0 shortcut, and the full search when a neighbor's color is
// ≡ c (mod q).
func TestApplyStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	steps := []Step{
		{D: 1, Q: 11, M: 121},
		{D: 2, Q: 13, M: 169},
		{D: 3, Q: 31, M: 961},
		{D: 5, Q: 67, M: 4489},
	}
	scratch := make([]sim.Word, 6*7) // widest step (d+1 = 6) × (max degree 6 + 1)
	searched := 0
	for i := 0; i < 2000; i++ {
		st := steps[rng.Intn(len(steps))]
		limit := st.Q // inputs to a step are < q^(d+1); keep them small but varied
		for j := int64(1); j <= st.D; j++ {
			limit *= st.Q
		}
		c := rng.Int63n(limit)
		deg := rng.Intn(7)
		in := make([]sim.Word, deg)
		ref := make([]int64, deg)
		for p := 0; p < deg; p++ {
			switch rng.Intn(4) {
			case 0:
				in[p], ref[p] = sim.NoWord, -1 // silent port
			case 1:
				in[p], ref[p] = c, c // improper duplicate, skipped by both
			default:
				nc := rng.Int63n(limit)
				in[p], ref[p] = nc, nc
			}
		}
		for _, nc := range ref {
			if nc >= 0 && nc != c && nc%st.Q == c%st.Q {
				searched++
				break
			}
		}
		got := applyStep(c, in, scratch, st)
		want := refApplyStep(c, ref, st)
		if got != want {
			t.Fatalf("case %d: applyStep = %d, reference = %d (c=%d step=%+v in=%v)", i, got, want, c, st, in)
		}
	}
	if searched < 100 || searched > 1900 {
		t.Fatalf("%d of 2000 cases needed the full search: one path went unexercised", searched)
	}
}

func TestApplyStepDeterministicAndProper(t *testing.T) {
	// Direct unit test of the polynomial step on a small clique: all
	// distinct colors must map to distinct new colors when applied with each
	// vertex seeing the others as neighbors.
	st := Step{D: 2, Q: 11, M: 121}
	colors := []int64{5, 17, 100, 1000, 42}
	newColors := make(map[int64]bool)
	for i, c := range colors {
		var nbrs []int64
		for j, o := range colors {
			if j != i {
				nbrs = append(nbrs, o)
			}
		}
		nc := refApplyStep(c, nbrs, st)
		if nc < 0 || nc >= st.M {
			t.Fatalf("new color %d out of range", nc)
		}
		if newColors[nc] {
			t.Fatalf("collision on new color %d", nc)
		}
		newColors[nc] = true
	}
}

// TestReduceAllocsIndependentOfN pins "no per-vertex objects": a whole
// Reduce run allocates the same number of heap objects on 1k and on 8k
// vertices — the program, its color slab, the engine's slabs and the
// shard's window and scratch, each one object whatever its length. The
// same Δ and m0 give both runs the same schedule.
func TestReduceAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		g, err := gen.NearRegular(n, 8, 2017)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			if _, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), 8000); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Reduce allocates %.1f objects on 1k vertices and %.1f on 8k: some allocation is per vertex", small, large)
	}
}

func TestPolyHelpers(t *testing.T) {
	// decompose/eval round trip: value of polynomial at x=q is... check
	// decompose base-q digits recompose to c.
	q := int64(13)
	for _, c := range []int64{0, 1, 12, 13, 168, 2196} {
		co := decompose(c, q, 4)
		var back int64
		mult := int64(1)
		for _, d := range co {
			back += d * mult
			mult *= q
		}
		if back != c {
			t.Fatalf("decompose(%d) round trip gave %d", c, back)
		}
	}
	// evalPoly: p(x) = 3 + 2x + x² at x=5 mod 7 = (3+10+25) mod 7 = 38 mod 7 = 3.
	if got := evalPoly([]int64{3, 2, 1}, 5, 7); got != 3 {
		t.Fatalf("evalPoly = %d, want 3", got)
	}
}
