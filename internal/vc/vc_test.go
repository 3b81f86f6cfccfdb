package vc

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

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

func TestDelta1(t *testing.T) {
	g := rg(1, 150, 0.06)
	res, err := Delta1(context.Background(), sim.NewTopology(g), int64(g.N()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(g.MaxDegree()) + 1
	if res.Palette != want {
		t.Fatalf("palette %d, want %d", res.Palette, want)
	}
	if err := verify.VertexColoring(g, res.Colors, want); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestDelta1OnStructuredGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"complete": graph.Complete(17),
		"path":     graph.Path(64),
		"cycleOdd": graph.Cycle(31),
		"star":     graph.Star(40),
		"bipart":   graph.CompleteBipartite(9, 13),
	} {
		res, err := Delta1(context.Background(), sim.NewTopology(g), int64(g.N()), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.VertexColoring(g, res.Colors, int64(g.MaxDegree())+1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTargetRejectsLowPalette(t *testing.T) {
	g := graph.Complete(5)
	if _, err := Target(context.Background(), sim.NewTopology(g), 5, 4, Options{}); err == nil {
		t.Fatal("expected error for target < Δ+1")
	}
}

func TestTargetLargerPalette(t *testing.T) {
	g := rg(3, 60, 0.1)
	target := int64(g.MaxDegree()) + 10
	res, err := Target(context.Background(), sim.NewTopology(g), int64(g.N()), target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, target); err != nil {
		t.Fatal(err)
	}
}

func TestDelta1WithSeedColoringIsFaster(t *testing.T) {
	g := rg(7, 200, 0.05)
	// First compute a Δ+1 coloring from scratch.
	fromScratch, err := Delta1(context.Background(), sim.NewTopology(g), int64(g.N()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Now seed with a proper small-palette coloring (the §3 trick): the
	// pipeline must still be correct and take no more rounds.
	topo := &sim.Topology{G: g, Labels: fromScratch.Colors}
	seeded, err := Delta1(context.Background(), topo, fromScratch.Palette, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, seeded.Colors, seeded.Palette); err != nil {
		t.Fatal(err)
	}
	if seeded.Stats.Rounds > fromScratch.Stats.Rounds {
		t.Fatalf("seeded run slower: %d > %d rounds", seeded.Stats.Rounds, fromScratch.Stats.Rounds)
	}
}

func TestEdgeColor(t *testing.T) {
	g := rg(2, 80, 0.08)
	res, err := EdgeColor(context.Background(), g, nil, EdgeIDBound(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := EdgePalette(g.MaxDegree())
	if res.Palette != want {
		t.Fatalf("palette %d, want 2Δ−1 = %d", res.Palette, want)
	}
	if err := verify.EdgeColoring(g, res.Colors, want); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeColorEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild()
	res, err := EdgeColor(context.Background(), g, nil, EdgeIDBound(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Colors) != 0 {
		t.Fatal("expected no edge colors")
	}
}

func TestEdgeColorStructured(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"complete": graph.Complete(9),
		"star":     graph.Star(20),
		"cycle":    graph.Cycle(15),
		"grid-ish": graph.CompleteBipartite(6, 6),
	} {
		res, err := EdgeColor(context.Background(), g, nil, EdgeIDBound(g), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestEdgeColorWithSeed(t *testing.T) {
	g := rg(5, 50, 0.15)
	first, err := EdgeColor(context.Background(), g, nil, EdgeIDBound(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seeding with a proper edge coloring must work and cost no more.
	seeded, err := EdgeColor(context.Background(), g, first.Colors, first.Palette, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.EdgeColoring(g, seeded.Colors, seeded.Palette); err != nil {
		t.Fatal(err)
	}
	if seeded.Stats.Rounds > first.Stats.Rounds {
		t.Fatalf("seeded edge run slower: %d > %d", seeded.Stats.Rounds, first.Stats.Rounds)
	}
}

func TestDelta1Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := rg(seed, n, 0.12)
		res, err := Delta1(context.Background(), sim.NewTopology(g), int64(n), Options{})
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, int64(g.MaxDegree())+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeColorQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(40)
		g := rg(seed, n, 0.15)
		res, err := EdgeColor(context.Background(), g, nil, EdgeIDBound(g), Options{})
		if err != nil {
			return false
		}
		return verify.EdgeColoring(g, res.Colors, res.Palette) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLineTopologyIdentifiers(t *testing.T) {
	g := graph.Complete(5)
	topo, err := LineTopology(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != g.M() {
		t.Fatal("line topology size wrong")
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if topo.ID(e) != int64(u)*int64(g.N())+int64(v) {
			t.Fatal("canonical edge ID wrong")
		}
		if topo.ID(e) >= EdgeIDBound(g) {
			t.Fatal("edge ID exceeds bound")
		}
	}
}

func TestEdgePalette(t *testing.T) {
	if EdgePalette(0) != 1 || EdgePalette(1) != 1 || EdgePalette(5) != 9 {
		t.Fatal("EdgePalette wrong")
	}
}
