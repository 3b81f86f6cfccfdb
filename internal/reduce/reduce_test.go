package reduce

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
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

// greedySeed builds a proper coloring with a deliberately wasteful palette m
// by offsetting a greedy coloring into spread-out classes.
func greedySeed(g *graph.Graph, spread int64) ([]int64, int64) {
	colors := make([]int64, g.N())
	for i := range colors {
		colors[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		used := map[int64]bool{}
		for _, a := range g.Adj(v) {
			if colors[a.To] >= 0 {
				used[colors[a.To]] = true
			}
		}
		var c int64
		for used[c] {
			c++
		}
		colors[v] = c
	}
	for v := range colors {
		colors[v] *= spread
	}
	return colors, (int64(g.MaxDegree()) + 1) * spread
}

func TestTrimClasses(t *testing.T) {
	g := rg(2, 80, 0.1)
	seed, m := greedySeed(g, 7)
	target := int64(g.MaxDegree()) + 1
	topo := &sim.Topology{G: g, Labels: seed}
	res, err := TrimClasses(context.Background(), sim.Sequential, topo, m, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, target); err != nil {
		t.Fatal(err)
	}
	wantRounds := int(m-target) + 1
	if res.Stats.Rounds != wantRounds {
		t.Fatalf("rounds %d, want %d", res.Stats.Rounds, wantRounds)
	}
}

func TestTrimNoopWhenAlreadyBelowTarget(t *testing.T) {
	g := graph.Path(5)
	topo := &sim.Topology{G: g, Labels: []int64{0, 1, 0, 1, 0}}
	res, err := TrimClasses(context.Background(), sim.Sequential, topo, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 0 || res.Palette != 2 {
		t.Fatalf("expected zero-cost passthrough, got %+v", res)
	}
}

func TestTrimRejectsLowTarget(t *testing.T) {
	g := graph.Star(5)
	seed, m := greedySeed(g, 1)
	topo := &sim.Topology{G: g, Labels: seed}
	if _, err := TrimClasses(context.Background(), sim.Sequential, topo, m, int64(g.MaxDegree())); err == nil {
		t.Fatal("expected target<Δ+1 error")
	}
}

func TestTrimRejectsMissingLabels(t *testing.T) {
	g := graph.Path(3)
	if _, err := TrimClasses(context.Background(), sim.Sequential, sim.NewTopology(g), 5, 3); err == nil {
		t.Fatal("expected missing-labels error")
	}
}

func TestTrimRejectsOutOfRangeLabels(t *testing.T) {
	g := graph.Path(3)
	topo := &sim.Topology{G: g, Labels: []int64{0, 9, 0}}
	if _, err := TrimClasses(context.Background(), sim.Sequential, topo, 5, 3); err == nil {
		t.Fatal("expected label range error")
	}
}

func TestKuhnWattenhofer(t *testing.T) {
	g := rg(4, 100, 0.08)
	seed, m := greedySeed(g, 97) // large, wasteful palette
	target := int64(g.MaxDegree()) + 1
	topo := &sim.Topology{G: g, Labels: seed}
	res, err := KuhnWattenhofer(context.Background(), sim.Sequential, topo, m, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, target); err != nil {
		t.Fatal(err)
	}
	// Round bound: |schedule| + 1 ≈ target·log₂(m/target) + 1; assert the
	// measured rounds match the derived schedule exactly and beat trimming.
	if int64(res.Stats.Rounds) >= m-target+1 {
		t.Fatalf("KW (%d rounds) not faster than trim (%d)", res.Stats.Rounds, m-target+1)
	}
}

func TestKWScheduleProperties(t *testing.T) {
	for _, tc := range []struct{ m, target int64 }{
		{100, 5}, {1000, 11}, {17, 8}, {64, 32}, {33, 16}, {4096, 7},
	} {
		plan := kwSchedule(tc.m, tc.target, 2*tc.target)
		if len(plan) == 0 {
			t.Fatalf("m=%d T=%d: empty plan", tc.m, tc.target)
		}
		// The plan is allocated once, at the length kwRounds counts.
		if int64(len(plan)) != kwRounds(tc.m, tc.target, 2*tc.target) || cap(plan) != len(plan) {
			t.Fatalf("m=%d T=%d: plan length %d, capacity %d, kwRounds %d",
				tc.m, tc.target, len(plan), cap(plan), kwRounds(tc.m, tc.target, 2*tc.target))
		}
		// Phases end with renumber steps; last round must renumber.
		if !plan[len(plan)-1].renumberAfter {
			t.Fatalf("m=%d T=%d: plan does not end a phase", tc.m, tc.target)
		}
		// Round cost must be O(T·log(m/T)): generous constant-4 check.
		logRatio := 1
		for x := tc.m; x > tc.target; x /= 2 {
			logRatio++
		}
		if int64(len(plan)) > 4*tc.target*int64(logRatio) {
			t.Fatalf("m=%d T=%d: plan length %d exceeds O(T log(m/T))", tc.m, tc.target, len(plan))
		}
	}
}

func TestKWQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		g := rg(seed, n, 0.15)
		sd, m := greedySeed(g, 13)
		target := int64(g.MaxDegree()) + 1
		topo := &sim.Topology{G: g, Labels: sd}
		res, err := KuhnWattenhofer(context.Background(), sim.Sequential, topo, m, target)
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, target) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(30)
		g := rg(seed, n, 0.2)
		sd, m := greedySeed(g, 3)
		target := int64(g.MaxDegree()) + 1
		topo := &sim.Topology{G: g, Labels: sd}
		res, err := TrimClasses(context.Background(), sim.Sequential, topo, m, target)
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, target) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoPicksFaster(t *testing.T) {
	g := rg(9, 60, 0.15)
	target := int64(g.MaxDegree()) + 1

	// Small palette gap: trim should win.
	seedSmall, _ := greedySeed(g, 1)
	topo := &sim.Topology{G: g, Labels: seedSmall}
	resSmall, err := Auto(context.Background(), sim.Sequential, topo, target+3, target)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Stats.Rounds > 4 {
		t.Fatalf("small-gap Auto used %d rounds", resSmall.Stats.Rounds)
	}

	// Huge palette: KW should win; verify the result is still proper.
	seedBig, m := greedySeed(g, 1009)
	topo = &sim.Topology{G: g, Labels: seedBig}
	resBig, err := Auto(context.Background(), sim.Sequential, topo, m, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, resBig.Colors, target); err != nil {
		t.Fatal(err)
	}
	if int64(resBig.Stats.Rounds) >= m-target {
		t.Fatal("Auto failed to pick KW for a large palette")
	}
}

func TestEstimateAutoRounds(t *testing.T) {
	if EstimateAutoRounds(10, 20) != 0 {
		t.Fatal("no reduction needed should cost 0")
	}
	if EstimateAutoRounds(25, 20) != 6 {
		t.Fatalf("small gap should use trim: got %d", EstimateAutoRounds(25, 20))
	}
	big := EstimateAutoRounds(1<<20, 8)
	if big <= 0 || big > 8*2*25 {
		t.Fatalf("big gap estimate out of range: %d", big)
	}
}

// enginesAgree runs a reduction on every engine and demands the
// sequential engine's colors and Stats from the others. Callers use at
// least 600 vertices, above two shards' worth (sim's step grain is 256),
// so the parallel engine steps several shards concurrently, each with its
// own scratch, wherever there are CPUs for them.
func enginesAgree(t *testing.T, run func(eng sim.Exec) (*Result, error)) {
	t.Helper()
	want, err := run(sim.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.ReverseSequential, sim.Parallel} {
		got, err := run(eng)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("engine %d: stats %+v, sequential %+v", eng, got.Stats, want.Stats)
		}
		for v := range want.Colors {
			if got.Colors[v] != want.Colors[v] {
				t.Fatalf("engine %d: color of vertex %d differs", eng, v)
			}
		}
	}
}

func TestKWEnginesAgree(t *testing.T) {
	g := rg(14, 600, 0.015)
	sd, m := greedySeed(g, 31)
	target := int64(g.MaxDegree()) + 1
	enginesAgree(t, func(eng sim.Exec) (*Result, error) {
		return KuhnWattenhofer(context.Background(), eng, &sim.Topology{G: g, Labels: sd}, m, target)
	})
}

func TestTrimEnginesAgree(t *testing.T) {
	g := rg(15, 600, 0.015)
	sd, m := greedySeed(g, 5)
	target := int64(g.MaxDegree()) + 1
	enginesAgree(t, func(eng sim.Exec) (*Result, error) {
		return TrimClasses(context.Background(), eng, &sim.Topology{G: g, Labels: sd}, m, target)
	})
}

// allocsOn measures one whole reduction run on a near-regular topology of
// n vertices and degree 8, seeded with greedySeed(g, 8): the same Δ, m
// and target on every n.
func allocsOn(t *testing.T, n int, run func(t *sim.Topology, m, target int64) (*Result, error)) float64 {
	t.Helper()
	g, err := gen.NearRegular(n, 8, 2017)
	if err != nil {
		t.Fatal(err)
	}
	sd, m := greedySeed(g, 8)
	target := int64(g.MaxDegree()) + 1
	runtime.GC()
	return testing.AllocsPerRun(5, func() {
		if _, err := run(&sim.Topology{G: g, Labels: sd}, m, target); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReductionAllocsIndependentOfN pins "no per-vertex objects" for both
// reductions: a whole run allocates the same number of heap objects on 1k
// and on 8k vertices — the program, its color slab, the engine's slabs and
// the shard's window and scratch, each one object whatever its length.
func TestReductionAllocsIndependentOfN(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		run  func(t *sim.Topology, m, target int64) (*Result, error)
	}{
		{"trim", func(t *sim.Topology, m, target int64) (*Result, error) {
			return TrimClasses(ctx, sim.Sequential, t, m, target)
		}},
		{"kw", func(t *sim.Topology, m, target int64) (*Result, error) {
			return KuhnWattenhofer(ctx, sim.Sequential, t, m, target)
		}},
	} {
		if small, large := allocsOn(t, 1000, c.run), allocsOn(t, 8000, c.run); small != large {
			t.Errorf("%s allocates %.1f objects on 1k vertices and %.1f on 8k: some allocation is per vertex", c.name, small, large)
		}
	}
}

// TestTrimSteadyStateAllocFree pins the ported trim program's contract on
// the sequential engine: the marginal cost of extra rounds is zero heap
// allocations. Differencing two runs that differ only in the declared
// palette m (the extra classes are empty, so the added rounds are pure
// steady state over the same program) cancels the setup cost exactly.
func TestTrimSteadyStateAllocFree(t *testing.T) {
	g := rg(21, 300, 0.04)
	sd, m := greedySeed(g, 64)
	target := int64(g.MaxDegree()) + 1
	run := func(palette int64) {
		topo := &sim.Topology{G: g, Labels: sd}
		if _, err := TrimClasses(context.Background(), sim.Sequential, topo, palette, target); err != nil {
			t.Fatal(err)
		}
	}
	short := testing.AllocsPerRun(5, func() { run(m) })
	long := testing.AllocsPerRun(5, func() { run(m + 192) })
	// The marginal cost is a whole number of allocations per round;
	// sub-0.5 residue of either sign is runtime noise (GC, pools) leaking
	// into one of the two measurements.
	if per := (long - short) / 192; per >= 0.5 || per <= -0.5 {
		t.Fatalf("trim allocates per round: %.2f (%.1f vs %.1f over 192 extra rounds)", per, long, short)
	}
}

// TestKWSteadyStateAllocFree pins the same contract for the
// Kuhn–Wattenhofer program: a larger starting palette adds phases (more
// rounds over the same program, scratch and bucket slab) without adding
// allocations. The schedule is one allocation however long it is, so the
// two runs must allocate the same number of objects.
func TestKWSteadyStateAllocFree(t *testing.T) {
	g := rg(22, 300, 0.04)
	sd, m := greedySeed(g, 64)
	target := int64(g.MaxDegree()) + 1
	run := func(palette int64) {
		topo := &sim.Topology{G: g, Labels: sd}
		if _, err := KuhnWattenhofer(context.Background(), sim.Sequential, topo, palette, target); err != nil {
			t.Fatal(err)
		}
	}
	extraRounds := kwRounds(4*m, target, 2*target) - kwRounds(m, target, 2*target)
	runtime.GC()
	short := testing.AllocsPerRun(5, func() { run(m) })
	long := testing.AllocsPerRun(5, func() { run(4 * m) })
	if long != short {
		t.Fatalf("kw allocates with its length: %.1f extra allocs over %d extra rounds (%.1f vs %.1f)",
			long-short, extraRounds, long, short)
	}
}
