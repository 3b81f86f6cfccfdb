package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(3))
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("maxdeg = %d", g.MaxDegree())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) || g.HasEdge(1, 3) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected range error")
	}
}

// TestFromSortedEdges checks that a sorted edge list builds the graph
// Build would, and that any list Build would have to sort, dedupe or
// reject is rejected.
func TestFromSortedEdges(t *testing.T) {
	want := Complete(6)
	g, err := FromSortedEdges(6, append([]Edge(nil), want.Edges()...))
	if err != nil {
		t.Fatal(err)
	}
	if d := graphDiff(g, want); d != "" {
		t.Fatal(d)
	}
	for name, edges := range map[string][]Edge{
		"unsorted":     {{1, 2}, {0, 3}},
		"repeated":     {{0, 1}, {0, 1}},
		"reversed":     {{2, 1}},
		"self-loop":    {{1, 1}},
		"out of range": {{0, 6}},
		"negative":     {{-1, 2}},
	} {
		if _, err := FromSortedEdges(6, edges); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestEdgeIdentifiers(t *testing.T) {
	g := Complete(5)
	if g.M() != 10 {
		t.Fatalf("K5 has %d edges", g.M())
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if u >= v {
			t.Fatalf("endpoints not ordered: %d %d", u, v)
		}
		id, ok := g.EdgeID(u, v)
		if !ok || id != e {
			t.Fatalf("EdgeID(%d,%d) = %d,%v want %d", u, v, id, ok, e)
		}
		if g.Other(e, u) != v || g.Other(e, v) != u {
			t.Fatal("Other wrong")
		}
	}
	if _, ok := g.EdgeID(0, 0); ok {
		t.Fatal("self EdgeID should not exist")
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	g := randomGraph(t, 60, 0.15, 7)
	// Every arc corresponds to the edge's endpoints.
	for v := 0; v < g.N(); v++ {
		for _, a := range g.Adj(v) {
			u1, u2 := g.Endpoints(int(a.Edge))
			if u1 != v && u2 != v {
				t.Fatalf("arc edge %d not incident on %d", a.Edge, v)
			}
			if int(a.To) != g.Other(int(a.Edge), v) {
				t.Fatal("arc.To inconsistent")
			}
		}
	}
	// Degree sum = 2m.
	total := 0
	for v := 0; v < g.N(); v++ {
		total += g.Degree(v)
	}
	if total != 2*g.M() {
		t.Fatalf("degree sum %d != 2m %d", total, 2*g.M())
	}
}

func TestStandardGraphs(t *testing.T) {
	if g := Path(5); g.M() != 4 || g.MaxDegree() != 2 {
		t.Fatal("Path wrong")
	}
	if g := Cycle(5); g.M() != 5 || g.MaxDegree() != 2 {
		t.Fatal("Cycle wrong")
	}
	if g := Star(6); g.M() != 5 || g.MaxDegree() != 5 || g.Degree(1) != 1 {
		t.Fatal("Star wrong")
	}
	if g := CompleteBipartite(3, 4); g.M() != 12 || g.MaxDegree() != 4 {
		t.Fatal("CompleteBipartite wrong")
	}
	if g := Complete(1); g.M() != 0 {
		t.Fatal("K1 wrong")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	sub, err := InducedSubgraph(g, []int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sub.G.N() != 3 || sub.G.M() != 3 {
		t.Fatalf("induced K3 expected, got n=%d m=%d", sub.G.N(), sub.G.M())
	}
	for v := 0; v < 3; v++ {
		want := []int{1, 3, 5}[v]
		if sub.OrigVertex(v) != want {
			t.Fatalf("OrigVertex(%d) = %d want %d", v, sub.OrigVertex(v), want)
		}
	}
	// Edge mapping: each sub edge maps to the parent edge on the original endpoints.
	for e := 0; e < sub.G.M(); e++ {
		u, v := sub.G.Endpoints(e)
		ou, ov := sub.OrigVertex(u), sub.OrigVertex(v)
		id, ok := g.EdgeID(ou, ov)
		if !ok || id != sub.OrigEdge(e) {
			t.Fatalf("edge map wrong: sub edge %d -> %d, want %d", e, sub.OrigEdge(e), id)
		}
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := Complete(4)
	if _, err := InducedSubgraph(g, []int{0, 0}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if _, err := InducedSubgraph(g, []int{0, 9}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := InducedSubgraph(g, []int{2, 1}); err == nil {
		t.Fatal("expected ascending-order error")
	}
}

func TestSpanningSubgraph(t *testing.T) {
	g := Cycle(6)
	sub := SpanningSubgraph(g, func(e int) bool { return e%2 == 0 })
	if sub.G.N() != 6 || sub.G.M() != 3 {
		t.Fatalf("got n=%d m=%d", sub.G.N(), sub.G.M())
	}
	if sub.OrigVertex(4) != 4 {
		t.Fatal("spanning subgraph should keep vertex identity")
	}
	for e := 0; e < sub.G.M(); e++ {
		if sub.OrigEdge(e)%2 != 0 {
			t.Fatalf("kept odd edge %d", sub.OrigEdge(e))
		}
		u, v := sub.G.Endpoints(e)
		ou, ov := g.Endpoints(sub.OrigEdge(e))
		if u != ou || v != ov {
			t.Fatal("edge endpoints changed in spanning subgraph")
		}
	}
}

// TestSpanningClasses splits a graph's edges into classes in one pass: each
// class is the spanning subgraph SpanningSubgraph extracts for it, an empty
// class is nil, the tables cover only the span of the classes present
// however large k is, and a class outside [0, k) is an error.
func TestSpanningClasses(t *testing.T) {
	g := Complete(7)
	const offset = int64(1) << 50
	class := make([]int64, g.M())
	for e := range class {
		class[e] = int64(e*e) % 5
		if class[e] == 2 {
			class[e] = 4 // leave class 2 empty
		}
		class[e] += offset
	}
	subs, first, err := SpanningClasses(g, class, 2*offset)
	if err != nil {
		t.Fatal(err)
	}
	if first != offset || len(subs) != 5 {
		t.Fatalf("classes span [%d, %d), want [%d, %d)", first, first+int64(len(subs)), offset, offset+5)
	}
	for i, sub := range subs {
		c := first + int64(i)
		want := SpanningSubgraph(g, func(e int) bool { return class[e] == c })
		if want.G.M() == 0 {
			if sub != nil {
				t.Fatalf("empty class %d returned a subgraph", c)
			}
			continue
		}
		if sub.G.N() != g.N() || !reflect.DeepEqual(sub.G.Edges(), want.G.Edges()) || !reflect.DeepEqual(sub.EOrig, want.EOrig) {
			t.Fatalf("class %d: edges %v (orig %v), want %v (orig %v)", c, sub.G.Edges(), sub.EOrig, want.G.Edges(), want.EOrig)
		}
	}
	if subs, _, err := SpanningClasses(NewBuilder(3).MustBuild(), nil, 1); err != nil || len(subs) != 0 {
		t.Fatalf("edgeless graph: %d classes, err %v", len(subs), err)
	}
	class[3] = 2 * offset
	if _, _, err := SpanningClasses(g, class, 2*offset); err == nil {
		t.Fatal("class outside [0,k) accepted")
	}
	if _, _, err := SpanningClasses(g, class[:3], 6); err == nil {
		t.Fatal("short class slice accepted")
	}
}

func TestSubgraphEdgeMapQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphRNG(rng, 30, 0.2)
		var verts []int
		for v := 0; v < g.N(); v++ {
			if rng.Intn(2) == 0 {
				verts = append(verts, v)
			}
		}
		sub, err := InducedSubgraph(g, verts)
		if err != nil {
			return false
		}
		for e := 0; e < sub.G.M(); e++ {
			u, v := sub.G.Endpoints(e)
			id, ok := g.EdgeID(sub.OrigVertex(u), sub.OrigVertex(v))
			if !ok || id != sub.OrigEdge(e) {
				return false
			}
		}
		// Completeness: every parent edge between chosen vertices appears.
		chosen := make(map[int]bool)
		for _, v := range verts {
			chosen[v] = true
		}
		wantEdges := 0
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(e)
			if chosen[u] && chosen[v] {
				wantEdges++
			}
		}
		return wantEdges == sub.G.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a G(n,p) sample for tests inside this package (the gen
// package would be a circular import here).
func randomGraph(t *testing.T, n int, p float64, seed int64) *Graph {
	t.Helper()
	return randomGraphRNG(rand.New(rand.NewSource(seed)), n, p)
}

func randomGraphRNG(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}
