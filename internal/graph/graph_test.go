package graph

import (
	"math/rand"
	"reflect"
	"testing"
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

// TestInducedSubgraph: the class {1, 3, 5} of K6 induces a K3 whose
// vertices keep their parent order and whose edges map to the parent edges
// on their endpoints.
func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	subs, first, err := InducedClasses(g, []int64{0, 1, 0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub := subs[1-first]
	if sub.G.N() != 3 || sub.G.M() != 3 {
		t.Fatalf("induced K3 expected, got n=%d m=%d", sub.G.N(), sub.G.M())
	}
	if !reflect.DeepEqual(sub.VOrig, []int32{1, 3, 5}) {
		t.Fatalf("VOrig = %v, want [1 3 5]", sub.VOrig)
	}
	for e := 0; e < sub.G.M(); e++ {
		u, v := sub.G.Endpoints(e)
		id, ok := g.EdgeID(int(sub.VOrig[u]), int(sub.VOrig[v]))
		if !ok || id != int(sub.EOrig[e]) {
			t.Fatalf("edge map wrong: sub edge %d -> %d, want %d", e, sub.EOrig[e], id)
		}
	}
}

// TestInducedSubgraphErrors: InducedClasses refuses a class vector of the
// wrong length and a class outside [0, k), and a graph without vertices
// has no classes.
func TestInducedSubgraphErrors(t *testing.T) {
	g := Complete(4)
	if _, _, err := InducedClasses(g, []int64{0, 0, 0}, 1); err == nil {
		t.Fatal("short class vector accepted")
	}
	if _, _, err := InducedClasses(g, []int64{0, 1, 2, 3}, 3); err == nil {
		t.Fatal("class k accepted")
	}
	if _, _, err := InducedClasses(g, []int64{0, -1, 0, 0}, 3); err == nil {
		t.Fatal("negative class accepted")
	}
	if subs, _, err := InducedClasses(NewBuilder(0).MustBuild(), nil, 1); err != nil || len(subs) != 0 {
		t.Fatalf("empty graph: %d classes, err %v", len(subs), err)
	}
}

func TestSpanningSubgraph(t *testing.T) {
	g := Cycle(6)
	sub := SpanningSubgraph(g, func(e int) bool { return e%2 == 0 })
	if sub.G.N() != 6 || sub.G.M() != 3 {
		t.Fatalf("got n=%d m=%d", sub.G.N(), sub.G.M())
	}
	if sub.VOrig != nil {
		t.Fatal("spanning subgraph should keep vertex identity")
	}
	for e := 0; e < sub.G.M(); e++ {
		if sub.EOrig[e]%2 != 0 {
			t.Fatalf("kept odd edge %d", sub.EOrig[e])
		}
		u, v := sub.G.Endpoints(e)
		ou, ov := g.Endpoints(int(sub.EOrig[e]))
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

// TestSubgraphEdgeMapQuick checks InducedClasses against a map-based
// induced subgraph on random graphs and class vectors: for every class its
// VOrig, edge list and EOrig, and a nil entry exactly where a class has no
// vertices. The class vectors leave classes empty, give some classes
// vertices but no edges, and start their span above 0.
func TestSubgraphEdgeMapQuick(t *testing.T) {
	var sawEmpty, sawEdgeless, sawOffset bool
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphRNG(rng, 1+rng.Intn(30), rng.Float64()*0.4)
		k := int64(1 + rng.Intn(8))
		class := make([]int64, g.N())
		for v := range class {
			class[v] = rng.Int63n(k)
		}
		subs, first, err := InducedClasses(g, class, k)
		if err != nil {
			t.Fatal(err)
		}
		sawOffset = sawOffset || first > 0
		for i, sub := range subs {
			want := inducedByMap(g, class, first+int64(i))
			if want == nil {
				sawEmpty = true
				if sub != nil {
					t.Fatalf("seed %d: empty class %d has a subgraph", seed, first+int64(i))
				}
				continue
			}
			sawEdgeless = sawEdgeless || want.G.M() == 0
			// The whole CSR, offsets, arcs and mates included, must be the
			// Builder's.
			if sub == nil || !reflect.DeepEqual(*sub.G, *want.G) ||
				!reflect.DeepEqual(sub.VOrig, want.VOrig) || !reflect.DeepEqual(sub.EOrig, want.EOrig) {
				t.Fatalf("seed %d: class %d is %+v, want %+v", seed, first+int64(i), sub, want)
			}
		}
	}
	if !sawEmpty || !sawEdgeless || !sawOffset {
		t.Fatalf("inputs missed a case: empty class %v, edgeless class %v, span above 0 %v", sawEmpty, sawEdgeless, sawOffset)
	}
}

// inducedByMap is the reference induced subgraph of class c: its members
// in ascending order, a map from member to index, and the Builder's sort.
// It returns nil when no vertex has class c.
func inducedByMap(g *Graph, class []int64, c int64) *Sub {
	index := map[int]int32{}
	var vorig []int32
	for v, cv := range class {
		if cv == c {
			index[v] = int32(len(vorig))
			vorig = append(vorig, int32(v))
		}
	}
	if vorig == nil {
		return nil
	}
	b := NewBuilder(len(vorig))
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		iu, okU := index[u]
		iv, okV := index[v]
		if okU && okV {
			b.AddEdge(int(iu), int(iv))
		}
	}
	sg := b.MustBuild()
	eorig := make([]int32, sg.M())
	for e := range eorig {
		u, v := sg.Endpoints(e)
		id, _ := g.EdgeID(int(vorig[u]), int(vorig[v]))
		eorig[e] = int32(id)
	}
	return &Sub{G: sg, VOrig: vorig, EOrig: eorig}
}

// TestInducedClassesAllocsIndependentOfSize pins InducedClasses' arenas:
// splitting a small graph into 3 classes and a large one into 40 makes the
// same allocations, so nothing is allocated per class or per vertex.
func TestInducedClassesAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int, k int64) float64 {
		g := randomGraph(t, n, 8/float64(n), int64(n))
		class := make([]int64, n)
		for v := range class {
			class[v] = int64(v*7) % k
		}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := InducedClasses(g, class, k); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(40, 3), allocs(2000, 40); small != large {
		t.Fatalf("InducedClasses makes %v allocations for 3 classes of a 40-vertex graph and %v for 40 of a 2000-vertex one", small, large)
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
