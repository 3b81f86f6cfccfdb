package cliques

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
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

func TestNewCoverValidates(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	// Valid cover: the three edges as 2-cliques.
	c, err := NewCover(g, [][]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Diversity() != 2 || c.MaxCliqueSize() != 2 {
		t.Fatalf("D=%d S=%d", c.Diversity(), c.MaxCliqueSize())
	}
	// Non-clique rejected.
	if _, err := NewCover(g, [][]int32{{0, 1, 2}, {2, 3}}); err == nil {
		t.Fatal("expected non-clique error: {0,2} not an edge")
	}
	// Uncovered edge rejected.
	if _, err := NewCover(g, [][]int32{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("expected cover error: edge {2,3} uncovered")
	}
	// Repeated vertex rejected.
	if _, err := NewCover(g, [][]int32{{0, 0}}); err == nil {
		t.Fatal("expected repeat error")
	}
	// Out of range rejected.
	if _, err := NewCover(g, [][]int32{{0, 9}}); err == nil {
		t.Fatal("expected range error")
	}
}

// TestLineGraphCover checks the canonical cover of a line graph: its cliques
// are the edge sets of g's vertices of degree ≥ 2, in vertex order, so an
// edge lies in one clique per endpoint of degree ≥ 2 (D ≤ 2) and S = Δ(G);
// every clique is complete in L(G) and every L-edge lies inside one.
func TestLineGraphCover(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"random": rg(7, 30, 0.2),
		"path":   graph.Path(6),
		"star":   graph.Star(6),
	} {
		l, c, err := LineCover(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.N() != g.M() {
			t.Fatalf("%s: %d L-vertices for %d edges", name, l.N(), g.M())
		}
		if err := c.Validate(l); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want [][]int32
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) >= 2 {
				var ids []int32
				for _, a := range g.Adj(v) {
					ids = append(ids, a.Edge)
				}
				want = append(want, ids)
			}
		}
		if !reflect.DeepEqual(c.Cliques, want) {
			t.Fatalf("%s: cliques %v, want %v", name, c.Cliques, want)
		}
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(e)
			k := 0
			for _, w := range []int{u, v} {
				if g.Degree(w) >= 2 {
					k++
				}
			}
			if len(c.MemberOf[e]) != k {
				t.Fatalf("%s: edge %d in %d cliques, want %d", name, e, len(c.MemberOf[e]), k)
			}
		}
		if s := c.MaxCliqueSize(); s != g.MaxDegree() {
			t.Fatalf("%s: S=%d, want Δ(G)=%d", name, s, g.MaxDegree())
		}
	}
}

func TestRestrictPreservesInvariants(t *testing.T) {
	lg, c, err := LineCover(rg(3, 24, 0.35))
	if err != nil {
		t.Fatal(err)
	}
	// Take an arbitrary induced subgraph of L(G) (odd-indexed vertices).
	var verts []int
	for v := 0; v < lg.N(); v += 2 {
		verts = append(verts, v)
	}
	sub, err := graph.InducedSubgraph(lg, verts)
	if err != nil {
		t.Fatal(err)
	}
	rc := c.Restrict(sub)
	if err := rc.Validate(sub.G); err != nil {
		t.Fatalf("restricted cover invalid: %v", err)
	}
	if rc.Diversity() > c.Diversity() {
		t.Fatalf("diversity grew: %d > %d", rc.Diversity(), c.Diversity())
	}
	if rc.MaxCliqueSize() > c.MaxCliqueSize() {
		t.Fatalf("clique size grew: %d > %d", rc.MaxCliqueSize(), c.MaxCliqueSize())
	}
}

func TestRestrictQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rg(seed, 18, 0.4)
		cov, err := CoverFromMaximalCliques(g)
		if err != nil {
			return false
		}
		var verts []int
		for v := 0; v < g.N(); v++ {
			if rng.Intn(2) == 0 {
				verts = append(verts, v)
			}
		}
		if len(verts) == 0 {
			return true
		}
		sub, err := graph.InducedSubgraph(g, verts)
		if err != nil {
			return false
		}
		rc := cov.Restrict(sub)
		return rc.Validate(sub.G) == nil && rc.Diversity() <= cov.Diversity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximalCliquesTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 2.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	cls := MaximalCliques(g)
	if len(cls) != 2 {
		t.Fatalf("want 2 maximal cliques, got %d: %v", len(cls), cls)
	}
	sizes := map[int]int{}
	for _, cl := range cls {
		sizes[len(cl)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 {
		t.Fatalf("wrong maximal cliques: %v", cls)
	}
}

func TestMaximalCliquesComplete(t *testing.T) {
	cls := MaximalCliques(graph.Complete(5))
	if len(cls) != 1 || len(cls[0]) != 5 {
		t.Fatalf("K5 maximal cliques wrong: %v", cls)
	}
}

func TestMaximalCliquesCountOnMoonMoser(t *testing.T) {
	// K_{3×2} (complete tripartite with parts of size 2, i.e. the
	// cocktail-party-ish Moon–Moser graph for n=6) has 2^3 = 8 maximal
	// cliques — wait, K_{2,2,2} has 2*2*2 = 8 maximal cliques (one vertex
	// per part).
	b := graph.NewBuilder(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if u/2 != v/2 { // different parts
				b.AddEdge(u, v)
			}
		}
	}
	cls := MaximalCliques(b.MustBuild())
	if len(cls) != 8 {
		t.Fatalf("K_{2,2,2} should have 8 maximal cliques, got %d", len(cls))
	}
	for _, cl := range cls {
		if len(cl) != 3 {
			t.Fatalf("clique size %d, want 3", len(cl))
		}
	}
}

func TestTrueDiversityLineGraph(t *testing.T) {
	// Line graphs (identified via maximal cliques) can exceed diversity 2 in
	// pathological small cases (footnote 5), but for a star line graph the
	// diversity is 1 (it is a complete graph).
	if d := TrueDiversity(graph.Complete(4)); d != 1 {
		t.Fatalf("K4 diversity %d, want 1", d)
	}
	// Path P4's line graph is P3: each vertex in ≤ 2 maximal cliques.
	if d := TrueDiversity(graph.LineGraph(graph.Path(4))); d != 2 {
		t.Fatalf("L(P4) diversity %d, want 2", d)
	}
}

func TestCoverFromMaximalCliques(t *testing.T) {
	g := rg(11, 15, 0.4)
	if g.M() == 0 {
		t.Skip("degenerate sample")
	}
	c, err := CoverFromMaximalCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictAllocsIndependentOfSize pins Restrict's arenas: restricting
// the line-graph cover of a small and of a large graph to every other
// line-graph vertex makes the same few allocations, however many cliques
// each keeps, and the restricted cliques and membership lists come out
// sorted without a sort. The count is 6 with the dense index pooled; the
// bound allows a pool miss (the race detector's sync.Pool drops entries at
// random), which adds the index and its two arrays.
func TestRestrictAllocsIndependentOfSize(t *testing.T) {
	const maxAllocs = 9
	allocs := func(n int) (float64, int) {
		lg, c, err := LineCover(rg(int64(n), n, 6/float64(n)))
		if err != nil {
			t.Fatal(err)
		}
		var verts []int
		for v := 0; v < lg.N(); v += 2 {
			verts = append(verts, v)
		}
		sub, err := graph.InducedSubgraph(lg, verts)
		if err != nil {
			t.Fatal(err)
		}
		rc := c.Restrict(sub)
		if err := rc.Validate(sub.G); err != nil {
			t.Fatal(err)
		}
		for _, lists := range [][][]int32{rc.Cliques, rc.MemberOf} {
			for _, l := range lists {
				if !slices.IsSorted(l) {
					t.Fatalf("unsorted restricted list %v", l)
				}
			}
		}
		return testing.AllocsPerRun(5, func() { c.Restrict(sub) }), len(rc.Cliques)
	}
	for _, n := range []int{40, 600} {
		if got, kept := allocs(n); got > maxAllocs {
			t.Errorf("Restrict makes %.0f allocations keeping %d cliques, want at most %d: some allocation is per clique",
				got, kept, maxAllocs)
		}
	}
}

// TestRestrictDoesNotLeakDenseIndex audits Cover.Restrict's pooled-index
// discipline: one recursion's worth of restrictions must leave the pool
// balanced (Restrict runs once per CD-Coloring level, so a leak here grows
// with recursion depth).
func TestRestrictDoesNotLeakDenseIndex(t *testing.T) {
	g := rg(16, 30, 0.5)
	c, err := CoverFromMaximalCliques(g)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := graph.InducedSubgraph(g, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if leaked := graph.LeakCheckDenseIndexes(func() {
		for i := 0; i < 8; i++ {
			c.Restrict(sub)
		}
	}); leaked != 0 {
		t.Fatalf("Cover.Restrict leaked %d pooled dense indexes", leaked)
	}
}
