package distcolor

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
)

// paGraph is the 200-vertex preferential-attachment graph (397 edges,
// Δ = 24) the Section 5 q tests run on.
func paGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(200, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 397 || g.MaxDegree() != 24 {
		t.Fatalf("graph has %d edges and Δ=%d, want 397 and 24", g.M(), g.MaxDegree())
	}
	return g
}

// TestThm53LargeQMemory: Theorem 5.3's class tables cover the classes its
// colorings use, not its declared palette (about 3q·√(qa)), so an
// in-schema q costs what the graph does.
func TestThm53LargeQMemory(t *testing.T) {
	g := paGraph(t)
	for _, q := range []float64{1e4, 1e6} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Run(context.Background(), g, AlgoEdgeSparse53, Params{"arboricity": 1, "q": q}, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("q=%g: %v", q, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
			t.Fatalf("q=%g: allocated %d bytes, want under 16 MB", q, alloc)
		}
	}
}

// TestSparsePaletteOverflowRefused: a declared palette beyond int64 is
// refused before any round, where it used to wrap negative (Theorem 5.3
// at q = 10⁹) or to start a merge of about 10⁹ sub-phases (Theorem 5.4).
func TestSparsePaletteOverflowRefused(t *testing.T) {
	g := paGraph(t)
	for _, c := range []struct {
		algo string
		a    float64
	}{
		{AlgoEdgeSparse53, 1},
		{AlgoEdgeSparse54x2, 1 << 30},
	} {
		rounds := 0
		_, err := Run(context.Background(), g, c.algo, Params{"arboricity": c.a, "q": 1e9},
			Options{Observer: func(RoundEvent) { rounds++ }})
		if err == nil || !strings.Contains(err.Error(), "declared palette overflows int64") {
			t.Fatalf("%s: err %v, want the palette overflow", c.algo, err)
		}
		if rounds != 0 {
			t.Fatalf("%s: %d rounds ran before the overflow was refused", c.algo, rounds)
		}
	}
}

// TestSparseHonorsQ: edge/sparse plans with its q parameter. At q = 10
// Theorem 5.2 has the smallest declared palette, so edge/sparse returns
// its coloring.
func TestSparseHonorsQ(t *testing.T) {
	g := paGraph(t)
	p := Params{"arboricity": 2, "q": 10}
	adaptive, err := Run(context.Background(), g, AlgoEdgeSparse, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	thm52, err := Run(context.Background(), g, AlgoEdgeSparse52, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Algorithm != "thm5.2" || adaptive.Palette != 82 || adaptive.Stats.Rounds != 264 {
		t.Fatalf("edge/sparse at q=10 ran %s: palette %d in %d rounds, want thm5.2: 82 in 264", adaptive.Algorithm, adaptive.Palette, adaptive.Stats.Rounds)
	}
	if !slices.Equal(adaptive.Colors, thm52.Colors) || adaptive.Stats != thm52.Stats {
		t.Fatal("edge/sparse at q=10 differs from edge/sparse/thm5.2")
	}
}
