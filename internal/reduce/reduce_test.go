package reduce

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
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
		// Phases are numbered 0, 1, … in order, each runs its classes
		// b−1 down to t, and the last is one block of at most 2T.
		for i, r := range plan {
			var want kwRound
			switch {
			case i == 0:
				want = kwRound{b: r.b, s: r.b - 1, t: tc.target}
			case plan[i-1].s == tc.target:
				want = kwRound{b: r.b, s: r.b - 1, t: tc.target, j: plan[i-1].j + 1}
			default:
				want = plan[i-1]
				want.s--
			}
			if r != want {
				t.Fatalf("m=%d T=%d: round %d is %+v, want %+v", tc.m, tc.target, i, r, want)
			}
		}
		if last := plan[len(plan)-1]; last.s != tc.target || last.b > 2*tc.target {
			t.Fatalf("m=%d T=%d: the plan ends with %+v", tc.m, tc.target, last)
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

// TestKWPhaseMaps checks the closed-form maps between a run's starting
// numbering and phase j's (phaseColor's F_j, startColor's G_j, and
// kwRound.class) against the iterated per-phase renumberings
// c → ⌊c/b⌋·t + c mod b of kwSchedule's phases, on KW's block 2t and on
// the trim's block m. A random starting color walks the phases as a
// vertex's color does: where its class is at least t it recolors into a
// random slot below t of its block, stored as G_j, and every phase end
// renumbers it. At each phase's start G_j(F_j(c)) = c must hold on the
// color the earlier phases left, and after the last phase the stored
// color must be the output color, which kwProgram returns unmapped.
func TestKWPhaseMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type mapCase struct{ m, t, block int64 }
	var cases []mapCase
	// m < 2t, m = 2t, and palettes whose phases end in a trailing partial
	// block of at most t and of more than t colors.
	for _, c := range [][2]int64{{5, 3}, {6, 3}, {7, 3}, {13, 3}, {14, 3}, {15, 4}, {33, 8}, {39, 8}, {1000, 7}, {1 << 20, 1}} {
		cases = append(cases, mapCase{c[0], c[1], 2 * c[1]}, mapCase{c[0], c[1], c[0]})
	}
	// A trim's plan has a round per dropped color, so fewer of them.
	for i := range 300 {
		tt := 1 + rng.Int63n(64)
		m := tt + 1 + rng.Int63n(1_000_000-tt)
		cases = append(cases, mapCase{m, tt, 2 * tt})
		if i%15 == 0 {
			cases = append(cases, mapCase{m, tt, m})
		}
	}
	partial := 0
	for _, c := range cases {
		plan := kwSchedule(c.m, c.t, c.block)
		var blocks []int64
		for i, r := range plan {
			if i == 0 || plan[i-1].j != r.j {
				blocks = append(blocks, r.b)
			}
		}
		if len(blocks) > 1 && c.m%blocks[0] > c.t {
			partial++
		}
		for range 40 {
			stored := rng.Int63n(c.m) // the color a vertex keeps, in the starting numbering
			cur := stored             // its color in the current phase's numbering
			m := c.m
			for j, b := range blocks {
				r := kwRound{b: b, t: c.t, j: uint8(j)}
				if got := phaseColor(stored, c.t, r.j); got != cur {
					t.Fatalf("%+v: F_%d(%d) = %d, iterated maps give %d", c, j, stored, got, cur)
				}
				if got := startColor(cur, c.t, r.j); got != stored {
					t.Fatalf("%+v: G_%d(%d) = %d, want the stored color %d", c, j, cur, got, stored)
				}
				if got := r.class(stored); got != cur%b {
					t.Fatalf("%+v: phase %d class of %d is %d, want %d", c, j, stored, got, cur%b)
				}
				if cur%b >= c.t {
					next := cur - cur%b + rng.Int63n(c.t)
					stored = startColor(next, c.t, r.j)
					if stored < 0 || stored >= c.m || phaseColor(stored, c.t, r.j) != next || r.class(stored) != next%b {
						t.Fatalf("%+v: phase %d recolor to %d stores %d, which maps back to %d, class %d",
							c, j, next, stored, phaseColor(stored, c.t, r.j), r.class(stored))
					}
					cur = next
				}
				cur = cur/b*c.t + cur%b
				if m = kwPalette(m, c.t, c.block); cur >= m {
					t.Fatalf("%+v: phase %d leaves color %d outside its palette %d", c, j, cur, m)
				}
			}
			if stored != cur || cur >= c.t {
				t.Fatalf("%+v: stores %d at the end, iterated maps give the output color %d (target %d)", c, stored, cur, c.t)
			}
		}
	}
	if partial == 0 {
		t.Fatal("no case's first phase ended in a partial block of more than t colors")
	}
}

// activeProbe is a kwProgram whose every Active answer is checked, before
// the round's steps, against a brute-force scan of the colors: a class
// round must list exactly the vertices whose phase color is ≡ s (mod b),
// in ascending order.
type activeProbe struct {
	*kwProgram
	t       *testing.T
	all     []int
	checked int
}

func (a *activeProbe) Active(round int) ([]int32, bool) {
	vs, all := a.kwProgram.Active(round)
	if all {
		a.all = append(a.all, round)
		return vs, all
	}
	r := a.schedule[round-1]
	var want []int32
	for v, c := range a.colors {
		if phaseColor(c, r.t, r.j)%r.b == r.s {
			want = append(want, int32(v))
		}
	}
	if !slices.Equal(vs, want) {
		a.t.Errorf("round %d (phase %d, class %d mod %d): active %v, brute force %v", round, r.j, r.s, r.b, vs, want)
	}
	a.checked++
	return vs, all
}

// TestKWActiveRounds runs KW over six phases with every Active answer
// checked: only round 0 and the last round step every vertex, and each
// class round steps exactly its class.
func TestKWActiveRounds(t *testing.T) {
	g := rg(23, 300, 0.04)
	sd, m := greedySeed(g, 64)
	target := int64(g.MaxDegree()) + 1
	schedule := kwSchedule(m, target, 2*target)
	if phases := schedule[len(schedule)-1].j + 1; phases < 4 {
		t.Fatalf("%d phases, want at least 4", phases)
	}
	for _, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential} {
		p := &activeProbe{kwProgram: newKWProgram(seedColors(&sim.Topology{G: g, Labels: sd}), schedule), t: t}
		if _, err := eng.Run(context.Background(), sim.NewTopology(g), p, len(schedule)+3); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.all, []int{0, len(schedule)}) {
			t.Fatalf("engine %d: rounds %v step every vertex, want [0 %d]", eng, p.all, len(schedule))
		}
		if p.checked != len(schedule)-1 {
			t.Fatalf("engine %d: checked %d class rounds, want %d", eng, p.checked, len(schedule)-1)
		}
		if err := verify.VertexColoring(g, p.colors, target); err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
	}
}
