package verify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestVertexColoring(t *testing.T) {
	g := graph.Path(3)
	if err := VertexColoring(g, []int64{0, 1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if err := VertexColoring(g, []int64{0, 0, 1}, 2); err == nil {
		t.Fatal("expected improper error")
	}
	if err := VertexColoring(g, []int64{0, 2, 0}, 2); err == nil {
		t.Fatal("expected palette error")
	}
	if err := VertexColoring(g, []int64{0, 1}, 2); err == nil {
		t.Fatal("expected length error")
	}
	if err := VertexColoring(g, []int64{0, -1, 0}, 2); err == nil {
		t.Fatal("expected negative color error")
	}
}

func TestEdgeColoring(t *testing.T) {
	g := graph.Path(3) // edges {0,1}=0, {1,2}=1
	if err := EdgeColoring(g, []int64{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := EdgeColoring(g, []int64{1, 1}, 2); err == nil {
		t.Fatal("expected shared-endpoint conflict")
	}
	if err := EdgeColoring(g, []int64{0, 5}, 2); err == nil {
		t.Fatal("expected palette error")
	}
	if err := EdgeColoring(g, []int64{0}, 2); err == nil {
		t.Fatal("expected length error")
	}
}

// edgeColoringMap is EdgeColoring with a map per vertex, as it was first
// written: the oracle its table is checked against.
func edgeColoringMap(g *graph.Graph, colors []int64, palette int64) error {
	if len(colors) != g.M() {
		return fmt.Errorf("verify: %d colors for %d edges", len(colors), g.M())
	}
	for e := 0; e < g.M(); e++ {
		if colors[e] < 0 || colors[e] >= palette {
			return fmt.Errorf("verify: edge %d color %d outside [0,%d)", e, colors[e], palette)
		}
	}
	for v := 0; v < g.N(); v++ {
		seen := make(map[int64]int32, g.Degree(v))
		for _, a := range g.Adj(v) {
			c := colors[a.Edge]
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("verify: edges %d,%d at vertex %d share color %d", prev, a.Edge, v, c)
			}
			seen[c] = a.Edge
		}
	}
	return nil
}

// sameError reports how got differs from the oracle's want, "" if not.
func sameError(got, want error) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil || want == nil:
		return fmt.Sprintf("error %v, oracle %v", got, want)
	case got.Error() != want.Error():
		return fmt.Sprintf("error %q, oracle %q", got, want)
	}
	return ""
}

// plantedColoring colors g properly and greedily, in edge order, from
// base up, then copies the colors of clashes random edges onto a random
// edge sharing an endpoint with each; it returns the colors and a palette
// one above the largest.
func plantedColoring(rng *rand.Rand, g *graph.Graph, base int64, clashes int) ([]int64, int64) {
	colors := make([]int64, g.M())
	used := make([]map[int64]bool, g.N())
	for v := range used {
		used[v] = map[int64]bool{}
	}
	top := base
	for e := range colors {
		u, v := g.Endpoints(e)
		c := base
		for used[u][c] || used[v][c] {
			c++
		}
		colors[e], used[u][c], used[v][c] = c, true, true
		top = max(top, c)
	}
	for ; clashes > 0 && g.M() > 0; clashes-- {
		e := rng.Intn(g.M())
		u, v := g.Endpoints(e)
		end := u
		if rng.Intn(2) == 1 {
			end = v
		}
		adj := g.Adj(end)
		colors[adj[rng.Intn(len(adj))].Edge] = colors[e]
	}
	return colors, top + 1
}

// TestEdgeColoringMatchesMap checks EdgeColoring against the map oracle,
// error text included, on random graphs: proper colorings, colorings with
// planted clashes, colorings drawn from a few colors, and out-of-palette
// colors, from small bases and from bases near 2⁶³.
func TestEdgeColoringMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	var proper, clashing, outside int
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(48)
		p := rng.Float64() * 0.5
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.MustBuild()
		base := int64(0)
		if trial%2 == 1 {
			base = math.MaxInt64 - 2*int64(g.MaxDegree()) - 2
		}
		colors, palette := plantedColoring(rng, g, base, rng.Intn(3))
		switch trial % 5 {
		case 3:
			// A few colors for many edges: clashes everywhere, so the
			// first in port order decides the text.
			for e := range colors {
				colors[e] = base + rng.Int63n(3)
			}
		case 4:
			if g.M() > 0 {
				colors[rng.Intn(g.M())] = palette
			}
		}
		want := edgeColoringMap(g, colors, palette)
		if d := sameError(EdgeColoring(g, colors, palette), want); d != "" {
			t.Fatalf("trial %d, %d vertices, colors %v: %s", trial, n, colors, d)
		}
		switch {
		case want == nil:
			proper++
		case trial%5 == 4:
			outside++
		default:
			clashing++
		}
	}
	if proper < 50 || clashing < 50 || outside < 50 {
		t.Fatalf("%d proper, %d clashing and %d out-of-palette colorings: want at least 50 of each", proper, clashing, outside)
	}
}

// FuzzEdgeColoring checks EdgeColoring against the map oracle on fuzzed
// graphs and colorings. data[0] mod 17 is the vertex count, bit 0 of
// data[1] puts the colors just below 2⁶³ and its bits 1–3 shrink the
// palette of 16 colors, data[2] mod 64 is the number of edge pairs that
// follow (self-loops and repeats dropped), and the bytes after them give
// the edges' colors, mod 16 above the base, in turn.
func FuzzEdgeColoring(f *testing.F) {
	f.Add([]byte{3, 0, 3, 0, 1, 1, 2, 2, 0, 0, 1, 2})
	f.Add([]byte{3, 1, 3, 0, 1, 1, 2, 2, 0, 0, 1, 1})
	f.Add([]byte{5, 6, 4, 0, 1, 0, 2, 0, 3, 0, 4, 15, 14, 13, 12})
	f.Add([]byte{16, 1, 6, 0, 1, 0, 2, 1, 2, 3, 4, 4, 5, 3, 5, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]) % 17
		base, palette := int64(0), int64(16)-int64(data[1]>>1&7)
		if data[1]&1 == 1 {
			base = math.MaxInt64 - 16
			palette += base
		}
		k := int(data[2]) % 64
		b := graph.NewBuilder(n)
		added := map[[2]int]bool{}
		i := 3
		for ; k > 0 && i+1 < len(data); k, i = k-1, i+2 {
			if n == 0 {
				continue
			}
			u, v := int(data[i])%n, int(data[i+1])%n
			if u > v {
				u, v = v, u
			}
			if u != v && !added[[2]int{u, v}] {
				added[[2]int{u, v}] = true
				b.AddEdge(u, v)
			}
		}
		g := b.MustBuild()
		colors := make([]int64, g.M())
		for e := range colors {
			if i < len(data) {
				colors[e] = base + int64(data[i]%16)
				i++
			} else {
				colors[e] = base
			}
		}
		if d := sameError(EdgeColoring(g, colors, palette), edgeColoringMap(g, colors, palette)); d != "" {
			t.Fatalf("edges %v, colors %v, palette %d: %s", g.Edges(), colors, palette, d)
		}
	})
}

func TestPaletteHelpers(t *testing.T) {
	if PaletteUsed([]int64{3, 3, 1, 0, 1}) != 3 {
		t.Fatal("PaletteUsed wrong")
	}
	if MaxColor([]int64{3, 9, 1}) != 9 || MaxColor(nil) != -1 {
		t.Fatal("MaxColor wrong")
	}
}

func TestHPartitionCheck(t *testing.T) {
	g := graph.Star(5) // center 0 degree 4
	// Put center in the last part alone: center has 0 ≥-part neighbors...
	// actually neighbors of leaves in parts ≥ theirs include the center.
	part := []int{1, 0, 0, 0, 0}
	if err := HPartition(g, part, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Center in part 0: it has 4 neighbors in parts ≥ 0 → bound 1 fails.
	part = []int{0, 1, 1, 1, 1}
	if err := HPartition(g, part, 2, 1); err == nil {
		t.Fatal("expected degree-bound violation")
	}
	if err := HPartition(g, []int{0}, 2, 1); err == nil {
		t.Fatal("expected length error")
	}
	if err := HPartition(g, []int{5, 0, 0, 0, 0}, 2, 4); err == nil {
		t.Fatal("expected range error")
	}
}

func TestAcyclicOrientationCheck(t *testing.T) {
	g := graph.Cycle(3)
	ranks := []int{0, 1, 2}
	o := graph.OrientByOrder(g, ranks)
	if err := AcyclicOrientation(o, 2); err != nil {
		t.Fatal(err)
	}
	if err := AcyclicOrientation(o, 1); err == nil {
		t.Fatal("expected out-degree violation")
	}
	cyc, err := graph.NewOrientation(g, []int32{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := AcyclicOrientation(cyc, 3); err == nil {
		t.Fatal("expected cycle detection")
	}
}
