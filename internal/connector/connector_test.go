package connector

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/util"
	"repro/internal/verify"
)

// lineCover builds a line graph with its canonical diversity-2 cover.
func lineCover(t *testing.T, seed int64, n int, p float64) (*graph.Graph, *cliques.Cover) {
	t.Helper()
	l, cov, err := cliques.LineCover(gen.GNP(n, p, seed))
	if err != nil {
		t.Fatal(err)
	}
	return l, cov
}

// groups cuts a cover's cliques into the connector's groups: the runs of
// t of each sorted clique.
func groups(cov *cliques.Cover, t int) [][]int32 {
	var out [][]int32
	for _, cl := range cov.Cliques {
		for lo := 0; lo < len(cl); lo += t {
			out = append(out, cl[lo:min(lo+t, len(cl))])
		}
	}
	return out
}

func TestCliqueConnectorDegreeBound(t *testing.T) {
	lg, cov := lineCover(t, 3, 24, 0.3)
	d := cov.Diversity()
	for _, tt := range []int{2, 3, 5} {
		cc, err := Clique(lg, cov.Cliques, tt)
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 2.1: Δ(G') ≤ D(t−1).
		if got, want := cc.Sub.G.MaxDegree(), cc.MaxDegreeBound(d); got > want {
			t.Fatalf("t=%d: connector degree %d exceeds D(t-1)=%d", tt, got, want)
		}
		// Every connector edge is an original edge within one group.
		inGroup := make(map[[2]int32]bool)
		for _, grp := range groups(cov, tt) {
			for i := 0; i < len(grp); i++ {
				for j := i + 1; j < len(grp); j++ {
					inGroup[[2]int32{grp[i], grp[j]}] = true
				}
			}
		}
		for e := 0; e < cc.Sub.G.M(); e++ {
			u, v := cc.Sub.G.Endpoints(e)
			if !lg.HasEdge(u, v) {
				t.Fatal("connector edge not in original graph")
			}
			if !inGroup[[2]int32{int32(u), int32(v)}] {
				t.Fatalf("t=%d: connector edge {%d,%d} joins no group", tt, u, v)
			}
		}
	}
}

func TestCliqueConnectorGroupEdgesPresent(t *testing.T) {
	lg, cov := lineCover(t, 9, 18, 0.35)
	cc, err := Clique(lg, cov.Cliques, 3)
	if err != nil {
		t.Fatal(err)
	}
	// All within-group pairs must be connector edges.
	for _, grp := range groups(cov, cc.T) {
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				if !cc.Sub.G.HasEdge(int(grp[i]), int(grp[j])) {
					t.Fatal("within-group edge missing from connector")
				}
			}
		}
	}
}

// TestCliqueAllocsIndependentOfSize pins Clique to a fixed number of
// allocations: a cover with many cliques makes no more than one with few.
func TestCliqueAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		lg, cov := lineCover(t, int64(n), n, 6/float64(n))
		return testing.AllocsPerRun(5, func() {
			if _, err := Clique(lg, cov.Cliques, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(30), allocs(600); small != large {
		t.Fatalf("Clique makes %v allocations on a small cover and %v on a large one", small, large)
	}
}

func TestCliqueConnectorRejectsSmallT(t *testing.T) {
	lg, cov := lineCover(t, 1, 10, 0.3)
	if _, err := Clique(lg, cov.Cliques, 1); err == nil {
		t.Fatal("expected error for t<2")
	}
}

func TestEdgeConnectorDegreeBound(t *testing.T) {
	g := gen.GNP(40, 0.25, 5)
	for _, tt := range []int{1, 2, 3, 7} {
		vg, err := Edge(g, tt)
		if err != nil {
			t.Fatal(err)
		}
		if vg.G.MaxDegree() > tt {
			t.Fatalf("t=%d: connector degree %d exceeds t", tt, vg.G.MaxDegree())
		}
		if vg.G.M() != g.M() {
			t.Fatalf("edge connector must preserve edge count: %d vs %d", vg.G.M(), g.M())
		}
		// Edge correspondence: connector edge endpoints' owners are the
		// original endpoints, and each endpoint is the virtual of the
		// edge's port there, in runs of t.
		owner := owners(vg.Base)
		for e := 0; e < vg.G.M(); e++ {
			cu, cv := vg.G.Endpoints(e)
			ou, ov := int(owner[cu]), int(owner[cv])
			wu, wv := g.Endpoints(int(vg.EOrig[e]))
			if !(ou == wu && ov == wv) && !(ou == wv && ov == wu) {
				t.Fatalf("edge %d owners (%d,%d) do not match original (%d,%d)", e, ou, ov, wu, wv)
			}
			for _, c := range []int{cu, cv} {
				o := owner[c]
				port := slices.IndexFunc(g.Adj(int(o)), func(a graph.Arc) bool { return a.Edge == vg.EOrig[e] })
				if index := int32(c) - vg.Base[o]; int(index) != port/tt {
					t.Fatalf("t=%d: edge %d has virtual %d at vertex %d, port %d", tt, e, index, o, port)
				}
			}
		}
		// Virtual count per owner: ⌈deg/t⌉.
		for v := 0; v < g.N(); v++ {
			if got, want := int(vg.Base[v+1]-vg.Base[v]), util.CeilDiv(g.Degree(v), tt); got != want {
				t.Fatalf("vertex %d has %d virtuals, want %d", v, got, want)
			}
		}
	}
}

// owners lists the owner of every virtual vertex of the layout base.
func owners(base []int32) []int32 {
	owner := make([]int32, base[len(base)-1])
	for v := 0; v+1 < len(base); v++ {
		for i := base[v]; i < base[v+1]; i++ {
			owner[i] = int32(v)
		}
	}
	return owner
}

func TestEdgeConnectorQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNP(10+rng.Intn(30), 0.2, seed)
		tt := 1 + rng.Intn(4)
		vg, err := Edge(g, tt)
		if err != nil {
			return false
		}
		return vg.G.MaxDegree() <= tt && vg.G.M() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOrientationConnector(t *testing.T) {
	g, err := gen.ForestUnionHub(200, 3, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	order, d := graph.DegeneracyOrder(g)
	rank := make([]int, g.N())
	for i, v := range order {
		rank[v] = i
	}
	o := graph.OrientByOrder(g, rank)
	delta := g.MaxDegree()
	k := max(1, util.ISqrt(delta))
	inGroup := util.CeilDiv(delta, k)
	outGroup := max(1, util.ISqrt(d))
	vg, err := Orientation(o, inGroup, outGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Degree bound: ≤ inGroup + outGroup.
	if vg.G.MaxDegree() > inGroup+outGroup {
		t.Fatalf("connector degree %d exceeds %d", vg.G.MaxDegree(), inGroup+outGroup)
	}
	// Orientation inherited: acyclic with out-degree ≤ outGroup.
	if err := verify.AcyclicOrientation(vg.Orient, outGroup); err != nil {
		t.Fatal(err)
	}
	if vg.G.M() != g.M() {
		t.Fatal("edge count changed")
	}
}

func TestBipartiteOrientationConnector(t *testing.T) {
	g, err := gen.ForestUnionHub(150, 2, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := graph.DegeneracyOrder(g)
	rank := make([]int, g.N())
	for i, v := range order {
		rank[v] = i
	}
	o := graph.OrientByOrder(g, rank)
	inGroup, outGroup := 5, 3
	vg, err := BipartiteOrientation(o, inGroup, outGroup)
	if err != nil {
		t.Fatal(err)
	}
	if vg.InSide == nil {
		t.Fatal("bipartite connector must mark sides")
	}
	// Bipartite: every edge joins an out-virtual (tail) to an in-virtual
	// (head); side degree bounds hold.
	for e := 0; e < vg.G.M(); e++ {
		u, v := vg.G.Endpoints(e)
		if vg.InSide[u] == vg.InSide[v] {
			t.Fatal("connector edge within one side")
		}
	}
	for v := 0; v < vg.G.N(); v++ {
		if vg.InSide[v] && vg.G.Degree(v) > inGroup {
			t.Fatalf("in-virtual degree %d exceeds %d", vg.G.Degree(v), inGroup)
		}
		if !vg.InSide[v] && vg.G.Degree(v) > outGroup {
			t.Fatalf("out-virtual degree %d exceeds %d", vg.G.Degree(v), outGroup)
		}
	}
	if err := verify.AcyclicOrientation(vg.Orient, outGroup); err != nil {
		t.Fatal(err)
	}
}

func TestOrientationConnectorRejectsBadGroups(t *testing.T) {
	g := graph.Path(3)
	o := graph.OrientByOrder(g, []int{0, 1, 2})
	if _, err := Orientation(o, 0, 1); err == nil {
		t.Fatal("expected error")
	}
	if _, err := BipartiteOrientation(o, 1, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestFigure1Structure(t *testing.T) {
	// Figure 1: two cliques Q,R sharing a vertex v, connector with t=4.
	// Build two K7s sharing vertex 0 and check the connector splits each
	// clique into groups of ≤ 4 with degree ≤ D(t−1) = 2·3 = 6.
	b := graph.NewBuilder(13)
	q := []int32{0, 1, 2, 3, 4, 5, 6}
	r := []int32{0, 7, 8, 9, 10, 11, 12}
	for _, cl := range [][]int32{q, r} {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				b.AddEdge(int(cl[i]), int(cl[j]))
			}
		}
	}
	g := b.MustBuild()
	cov, err := cliques.NewCover(g, [][]int32{q, r})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Diversity() != 2 {
		t.Fatalf("shared vertex should have diversity 2, got %d", cov.Diversity())
	}
	cc, err := Clique(g, cov.Cliques, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Sub.G.MaxDegree() > 2*3 {
		t.Fatalf("Figure 1 connector degree %d > 6", cc.Sub.G.MaxDegree())
	}
	// Each clique of size 7 splits into groups of 4 and 3, which keep
	// 6 + 3 of its edges.
	if cc.Sub.G.M() != 2*(6+3) {
		t.Fatalf("Figure 1 connector has %d edges, want 18", cc.Sub.G.M())
	}
}

func TestFigure2Structure(t *testing.T) {
	// Figure 2: edge connector with t=3 on a vertex of degree 7: it splits
	// into ⌈7/3⌉ = 3 virtual vertices of degrees 3,3,1.
	g := graph.Star(8)
	vg, err := Edge(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	var centerVirts []int
	for v := vg.Base[0]; v < vg.Base[1]; v++ {
		centerVirts = append(centerVirts, vg.G.Degree(int(v)))
	}
	if len(centerVirts) != 3 {
		t.Fatalf("center should have 3 virtuals, got %d", len(centerVirts))
	}
	sum := 0
	for _, d := range centerVirts {
		if d > 3 {
			t.Fatalf("virtual degree %d exceeds t=3", d)
		}
		sum += d
	}
	if sum != 7 {
		t.Fatalf("virtual degrees sum to %d, want 7", sum)
	}
}

func TestFigure3Structure(t *testing.T) {
	// Figure 3: orientation connector on a single vertex with 9 in-edges
	// and 4 out-edges, √ grouping: in-groups of 3 onto 3 virtuals,
	// out-groups of 2 onto 2 virtuals (shared set).
	b := graph.NewBuilder(14)
	for i := 1; i <= 9; i++ {
		b.AddEdge(0, i) // will orient into 0
	}
	for i := 10; i <= 13; i++ {
		b.AddEdge(0, i) // will orient out of 0
	}
	g := b.MustBuild()
	heads := make([]int32, g.M())
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		_ = u
		if v <= 9 {
			heads[e] = 0 // in-edge of vertex 0
		} else {
			heads[e] = int32(v)
		}
	}
	o, err := graph.NewOrientation(g, heads)
	if err != nil {
		t.Fatal(err)
	}
	vg, err := Orientation(o, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0's virtuals: max(⌈9/3⌉, ⌈4/2⌉) = 3.
	for v := vg.Base[0]; v < vg.Base[1]; v++ {
		if vg.G.Degree(int(v)) > 3+2 {
			t.Fatalf("virtual degree %d exceeds in+out group bound", vg.G.Degree(int(v)))
		}
	}
	if virts := vg.Base[1] - vg.Base[0]; virts != 3 {
		t.Fatalf("vertex 0 should have 3 virtuals, got %d", virts)
	}
	if err := verify.AcyclicOrientation(vg.Orient, 2); err != nil {
		t.Fatal(err)
	}
}
