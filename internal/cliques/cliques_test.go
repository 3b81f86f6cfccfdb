package cliques

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

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

// TestRestrictPreservesInvariants splits the line-graph cover by three
// vertex classes: each part is a valid cover of the subgraph its class
// induces, and neither its diversity nor its clique size exceeds the
// parent's (Lemma 2.3(ii)).
func TestRestrictPreservesInvariants(t *testing.T) {
	lg, c, err := LineCover(rg(3, 24, 0.35))
	if err != nil {
		t.Fatal(err)
	}
	class := make([]int64, lg.N())
	for v := range class {
		class[v] = int64(v % 3)
	}
	subs, first, err := graph.InducedClasses(lg, class, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts, pfirst, err := Split(c.Cliques, class, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pfirst != first || len(parts) != len(subs) {
		t.Fatalf("parts span [%d,+%d), classes [%d,+%d)", pfirst, len(parts), first, len(subs))
	}
	for i, sub := range subs {
		rc, err := NewCover(sub.G, parts[i])
		if err != nil {
			t.Fatalf("class %d: restricted cover invalid: %v", i, err)
		}
		if rc.Diversity() > c.Diversity() {
			t.Fatalf("class %d: diversity grew: %d > %d", i, rc.Diversity(), c.Diversity())
		}
		if rc.MaxCliqueSize() > c.MaxCliqueSize() {
			t.Fatalf("class %d: clique size grew: %d > %d", i, rc.MaxCliqueSize(), c.MaxCliqueSize())
		}
	}
}

// TestRestrictQuick checks Split against the per-class restriction it
// replaced, on the maximal-clique covers of 300 random graphs and class
// vectors with empty classes and spans above 0. Every part must equal the
// reference, be a valid cover of the subgraph graph.InducedClasses extracts
// for its class, with diversity at most the parent's, and number the
// class's vertices as that subgraph does.
func TestRestrictQuick(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := rg(seed, 1+rng.Intn(18), 0.1+rng.Float64()*0.5)
		cov, err := CoverFromMaximalCliques(g)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(1 + rng.Intn(6))
		class := make([]int64, g.N())
		for v := range class {
			class[v] = rng.Int63n(k)
		}
		parts, first, err := Split(cov.Cliques, class, k)
		if err != nil {
			t.Fatal(err)
		}
		subs, _, err := graph.InducedClasses(g, class, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			vorig, want := restrictByMap(cov.Cliques, class, first+int64(i))
			if len(part) != len(want) || len(want) > 0 && !reflect.DeepEqual(part, want) {
				t.Fatalf("seed %d: class %d split %v, want %v", seed, first+int64(i), part, want)
			}
			if subs[i] == nil {
				if len(part) > 0 {
					t.Fatalf("seed %d: empty class %d has cliques %v", seed, first+int64(i), part)
				}
				continue
			}
			if !reflect.DeepEqual(subs[i].VOrig, vorig) {
				t.Fatalf("seed %d: class %d numbered %v by InducedClasses, %v by Split", seed, first+int64(i), subs[i].VOrig, vorig)
			}
			rc, err := NewCover(subs[i].G, part)
			if err != nil {
				t.Fatalf("seed %d: class %d: %v", seed, first+int64(i), err)
			}
			if rc.Diversity() > cov.Diversity() {
				t.Fatalf("seed %d: class %d diversity %d > %d", seed, first+int64(i), rc.Diversity(), cov.Diversity())
			}
		}
	}
}

// restrictByMap is the reference restriction to class c, one class at a
// time: the class's members in ascending order, a map from member to
// index, and every clique intersected with the class in cover order,
// dropped below two members. It returns the members and the cliques.
func restrictByMap(cliques [][]int32, class []int64, c int64) (vorig []int32, restricted [][]int32) {
	index := map[int32]int32{}
	for v, cv := range class {
		if cv == c {
			index[int32(v)] = int32(len(vorig))
			vorig = append(vorig, int32(v))
		}
	}
	for _, q := range cliques {
		var r []int32
		for _, v := range q {
			if i, ok := index[v]; ok {
				r = append(r, i)
			}
		}
		if len(r) >= 2 {
			restricted = append(restricted, r)
		}
	}
	return vorig, restricted
}

// TestSplitErrors: a class outside [0, k) and a clique vertex without a
// class are refused, and a graph without vertices has no parts.
func TestSplitErrors(t *testing.T) {
	q := [][]int32{{0, 1, 2}}
	if _, _, err := Split(q, []int64{0, 1, 2}, 2); err == nil {
		t.Fatal("class k accepted")
	}
	if _, _, err := Split(q, []int64{0, 1}, 2); err == nil {
		t.Fatal("clique vertex outside the class vector accepted")
	}
	if parts, _, err := Split(nil, nil, 1); err != nil || len(parts) != 0 {
		t.Fatalf("no vertices: %d parts, err %v", len(parts), err)
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

// TestRestrictAllocsIndependentOfSize pins Split's arenas: splitting the
// line-graph cover of a small graph by 3 classes and of a large one by 40
// makes the same allocations, however many cliques each keeps, and the
// restricted cliques come out sorted without a sort.
func TestRestrictAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int, k int64) (float64, int) {
		lg, c, err := LineCover(rg(int64(n), n, 6/float64(n)))
		if err != nil {
			t.Fatal(err)
		}
		class := make([]int64, lg.N())
		for v := range class {
			class[v] = int64(v*7) % k
		}
		parts, _, err := Split(c.Cliques, class, k)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, part := range parts {
			kept += len(part)
			for _, q := range part {
				if !slices.IsSorted(q) {
					t.Fatalf("unsorted restricted clique %v", q)
				}
			}
		}
		return testing.AllocsPerRun(5, func() { Split(c.Cliques, class, k) }), kept
	}
	small, keptSmall := allocs(40, 3)
	large, keptLarge := allocs(600, 40)
	if small != large {
		t.Fatalf("Split makes %v allocations keeping %d cliques in 3 classes and %v keeping %d in 40: some allocation is per clique or per class",
			small, keptSmall, large, keptLarge)
	}
}
