package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestLineGraphOfPath(t *testing.T) {
	// L(P4) = P3.
	lg := LineGraph(Path(4))
	if lg.N() != 3 || lg.M() != 2 {
		t.Fatalf("L(P4): n=%d m=%d, want 3,2", lg.N(), lg.M())
	}
}

func TestLineGraphOfStar(t *testing.T) {
	// L(K_{1,k}) = K_k.
	lg := LineGraph(Star(6))
	if lg.N() != 5 || lg.M() != 10 {
		t.Fatalf("L(star): n=%d m=%d, want 5,10", lg.N(), lg.M())
	}
}

func TestLineGraphOfTriangle(t *testing.T) {
	// L(K3) = K3; edges meet pairwise at distinct vertices, so no duplicate
	// L-edges may be generated.
	lg := LineGraph(Cycle(3))
	if lg.N() != 3 || lg.M() != 3 {
		t.Fatalf("L(K3): n=%d m=%d, want 3,3", lg.N(), lg.M())
	}
}

func TestLineGraphAdjacencyDefinition(t *testing.T) {
	g := randomGraph(t, 25, 0.25, 11)
	lg := LineGraph(g)
	if lg.N() != g.M() {
		t.Fatalf("L-vertices %d != edges %d", lg.N(), g.M())
	}
	// Two L-vertices adjacent iff underlying edges share an endpoint.
	for e1 := 0; e1 < g.M(); e1++ {
		for e2 := e1 + 1; e2 < g.M(); e2++ {
			u1, v1 := g.Endpoints(e1)
			u2, v2 := g.Endpoints(e2)
			share := u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2
			if lg.HasEdge(e1, e2) != share {
				t.Fatalf("L adjacency wrong for edges %d,%d", e1, e2)
			}
		}
	}
}

func TestHypergraphValidation(t *testing.T) {
	if _, err := NewHypergraph(5, 3, [][]int{{0, 1}}); err == nil {
		t.Fatal("expected rank mismatch error")
	}
	if _, err := NewHypergraph(5, 3, [][]int{{0, 1, 1}}); err == nil {
		t.Fatal("expected repeated-vertex error")
	}
	if _, err := NewHypergraph(5, 3, [][]int{{0, 1, 7}}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := NewHypergraph(5, 1, nil); err == nil {
		t.Fatal("expected rank error")
	}
	h, err := NewHypergraph(5, 3, [][]int{{4, 2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Edges[0][0] != 0 || h.Edges[0][2] != 4 {
		t.Fatal("hyperedge not sorted")
	}
}

func TestHypergraphLineGraphDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nv, rank, ne := 40, 3, 60
	var edges [][]int
	for len(edges) < ne {
		perm := rng.Perm(nv)[:rank]
		edges = append(edges, perm)
	}
	h, err := NewHypergraph(nv, rank, edges)
	if err != nil {
		t.Fatal(err)
	}
	lg, byVertex := h.LineGraph()
	if lg.N() != ne {
		t.Fatalf("line graph has %d vertices, want %d", lg.N(), ne)
	}
	// Diversity bound: every L-vertex is in at most rank cliques.
	count := make([]int, ne)
	for _, c := range byVertex {
		for _, x := range c {
			count[x]++
		}
	}
	for id, cnt := range count {
		if cnt != rank {
			t.Fatalf("hyperedge %d in %d cliques, want %d (one per vertex)", id, cnt, rank)
		}
	}
	// Adjacency: two hyperedges adjacent iff they intersect.
	for i := 0; i < ne; i++ {
		for j := i + 1; j < ne; j++ {
			intersect := false
			for _, a := range h.Edges[i] {
				for _, b := range h.Edges[j] {
					if a == b {
						intersect = true
					}
				}
			}
			if lg.HasEdge(i, j) != intersect {
				t.Fatalf("hypergraph line adjacency wrong for %d,%d", i, j)
			}
		}
	}
}

// builderLineGraph is the specification LineGraph's sort-free
// construction must meet: every pair of edges at a shared vertex, added to
// a Builder and sorted by Build.
func builderLineGraph(g *Graph) *Graph {
	b := NewBuilder(g.M())
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(v)
		for i := range adj {
			for j := i + 1; j < len(adj); j++ {
				b.AddEdge(int(adj[i].Edge), int(adj[j].Edge))
			}
		}
	}
	return b.MustBuild()
}

// graphDiff describes the first difference between two graphs' shapes,
// edge lists and adjacency orders, or returns "" when they are identical.
func graphDiff(got, want *Graph) string {
	if got.N() != want.N() || got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
		return fmt.Sprintf("n=%d m=%d Δ=%d, want n=%d m=%d Δ=%d",
			got.N(), got.M(), got.MaxDegree(), want.N(), want.M(), want.MaxDegree())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		return fmt.Sprintf("edge list %v, want %v", got.Edges(), want.Edges())
	}
	for v := 0; v < got.N(); v++ {
		if !slices.Equal(got.Adj(v), want.Adj(v)) {
			return fmt.Sprintf("Adj(%d) = %v, want %v", v, got.Adj(v), want.Adj(v))
		}
	}
	return ""
}

// lineCase is a graph the line-graph constructions are checked on.
type lineCase struct {
	name string
	g    *Graph
}

// lineCases returns the structured edge cases and 32 random graphs of at
// most 60 vertices.
func lineCases() []lineCase {
	iso := NewBuilder(8)
	for _, e := range [][2]int{{1, 4}, {4, 6}, {1, 6}, {2, 4}, {6, 7}} {
		iso.AddEdge(e[0], e[1])
	}
	cases := []lineCase{
		{"star", Star(9)},
		{"complete", Complete(9)},
		{"cycle", Cycle(11)},
		{"path", Path(10)},
		{"isolated-vertices", iso.MustBuild()},
		{"edgeless", NewBuilder(5).MustBuild()},
		{"empty", NewBuilder(0).MustBuild()},
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 32; i++ {
		n, p := 1+rng.Intn(60), 0.5*rng.Float64()
		cases = append(cases, lineCase{fmt.Sprintf("random-%d-n%d", i, n), randomGraphRNG(rng, n, p)})
	}
	return cases
}

// TestLineGraphMatchesBuilder pins LineGraph to the Builder path: same
// edge identifiers, same edge list, same port order, same Δ.
func TestLineGraphMatchesBuilder(t *testing.T) {
	for _, c := range lineCases() {
		if d := graphDiff(LineGraph(c.g), builderLineGraph(c.g)); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}

// lineTableDiff describes the first way g's line table differs from L(g)
// as LineGraph builds it, or returns "" when they agree: every row holds
// exactly the neighbors of its line vertex in L(g), as a set, the other
// edges at U before those at V, and the degrees and Δ are L's.
func lineTableDiff(g *Graph) string {
	lt, err := NewLineTable(g)
	if err != nil {
		return err.Error()
	}
	lg := LineGraph(g)
	if lt.N() != lg.N() || lt.MaxDegree() != lg.MaxDegree() {
		return fmt.Sprintf("n=%d Δ=%d, want n=%d Δ=%d", lt.N(), lt.MaxDegree(), lg.N(), lg.MaxDegree())
	}
	for e := 0; e < lt.N(); e++ {
		row := lt.Row(e)
		if lt.Degree(e) != len(row) || len(row) != lg.Degree(e) {
			return fmt.Sprintf("row %d: degree %d, length %d, want %d", e, lt.Degree(e), len(row), lg.Degree(e))
		}
		// L's adjacency lists its neighbors ascending.
		got := slices.Sorted(slices.Values(row))
		want := make([]int32, 0, len(row))
		for _, a := range lg.Adj(e) {
			want = append(want, a.To)
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("row %d = %v, want the set %v", e, row, want)
		}
		u, _ := g.Endpoints(e)
		for i, f := range row {
			atU := g.edges[f].U == int32(u) || g.edges[f].V == int32(u)
			if atU != (i < g.Degree(u)-1) {
				return fmt.Sprintf("row %d = %v: the edges at U=%d do not come first", e, row, u)
			}
		}
	}
	return ""
}

// TestLineTableMatchesLineGraph pins the line table to LineGraph on the
// graphs TestLineGraphMatchesBuilder checks.
func TestLineTableMatchesLineGraph(t *testing.T) {
	for _, c := range lineCases() {
		if d := lineTableDiff(c.g); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}

// TestLineTableAllocs pins NewLineTable to two allocations whatever the
// graph: the table and the one slab of its offsets and rows.
func TestLineTableAllocs(t *testing.T) {
	for name, g := range map[string]*Graph{"path": Path(50), "K30": Complete(30), "edgeless": NewBuilder(9).MustBuild()} {
		if got := testing.AllocsPerRun(5, func() { NewLineTable(g) }); got != 2 {
			t.Errorf("%s: NewLineTable makes %v allocations, want 2", name, got)
		}
	}
}

// TestLineTableRefusesInt32Overflow: the line table of a 200,000-vertex
// star needs 199,999·199,998 ≈ 4.0·10¹⁰ entries, beyond its int32
// offsets. NewLineTable refuses it with an error naming the size, after
// the degree pass and before allocating any row.
func TestLineTableRefusesInt32Overflow(t *testing.T) {
	g := Star(200000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lt, err := NewLineTable(g)
	runtime.ReadMemStats(&after)
	if err == nil || lt != nil {
		t.Fatalf("line table of a 200,000-vertex star built (%v)", err)
	}
	if !strings.Contains(err.Error(), "39999400002") {
		t.Fatalf("error %q does not name the table size 39999400002", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("refusal allocated %d B", d)
	}
}

// TestLineGraphAllocs pins LineGraph to six allocations whatever the
// graph: the edge list, the per-vertex cursor, and the four of
// fromSortedEdges (graph, offsets, arcs, mates).
func TestLineGraphAllocs(t *testing.T) {
	for name, g := range map[string]*Graph{"path": Path(50), "K30": Complete(30)} {
		if got := testing.AllocsPerRun(5, func() { LineGraph(g) }); got != 6 {
			t.Errorf("%s: LineGraph makes %v allocations, want 6", name, got)
		}
	}
}
