package graph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// relabel returns the isomorphic copy of g with vertex v renamed perm[v].
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	return b.MustBuild()
}

// canonicalFamilies is the relabeling-invariance corpus: random families
// plus highly symmetric structured ones (where WL refinement alone cannot
// discretize and the individualization path is exercised).
func canonicalFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":         gen.GNP(40, 0.15, 7),
		"gnp-dense":   gen.GNP(24, 0.5, 11),
		"forestunion": gen.ForestUnion(60, 3, 5),
		"geometric":   gen.Geometric(50, 0.25, 3),
		"grid":        gen.Grid(5, 7),
		"complete":    graph.Complete(9),
		"cycle":       graph.Cycle(12),
		"path":        graph.Path(12),
		"star":        graph.Star(11),
		"bipartite":   graph.CompleteBipartite(4, 6),
		"empty":       graph.NewBuilder(8).MustBuild(),
	}
}

func TestCanonicalLabelingIsPermutation(t *testing.T) {
	for name, g := range canonicalFamilies() {
		perm := graph.CanonicalLabeling(g)
		if len(perm) != g.N() {
			t.Fatalf("%s: labeling has %d entries for %d vertices", name, len(perm), g.N())
		}
		seen := make([]bool, g.N())
		for v, p := range perm {
			if p < 0 || int(p) >= g.N() || seen[p] {
				t.Fatalf("%s: perm[%d]=%d is not a bijection", name, v, p)
			}
			seen[p] = true
		}
	}
}

func TestCanonicalHashInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, g := range canonicalFamilies() {
		want := graph.CanonicalHash(g)
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(g.N())
			h := relabel(g, perm)
			if got := graph.CanonicalHash(h); got != want {
				t.Fatalf("%s trial %d: relabeled copy hashes %s, original %s", name, trial, got, want)
			}
		}
	}
}

// distinctCorpus is a corpus of pairwise non-isomorphic graphs.
func distinctCorpus() map[string]*graph.Graph {
	corpus := map[string]*graph.Graph{}
	// The structured families skip their few cross-family isomorphisms:
	// C3 = K3, star-3 = path-3, and the 2×2 grid = C4.
	for n := 3; n <= 12; n++ {
		corpus[fmt.Sprintf("path-%d", n)] = graph.Path(n)
		corpus[fmt.Sprintf("complete-%d", n)] = graph.Complete(n)
		if n >= 4 {
			corpus[fmt.Sprintf("cycle-%d", n)] = graph.Cycle(n)
			corpus[fmt.Sprintf("star-%d", n)] = graph.Star(n)
		}
	}
	for rows := 2; rows <= 4; rows++ {
		for cols := rows; cols <= 5; cols++ {
			if rows == 2 && cols == 2 {
				continue
			}
			corpus[fmt.Sprintf("grid-%dx%d", rows, cols)] = gen.Grid(rows, cols)
		}
	}
	// Random sweep: distinct seeds give structurally distinct samples (an
	// accidental isomorphism between two G(24, 0.2) samples has negligible
	// probability and would be a legitimate finding anyway).
	for seed := int64(0); seed < 60; seed++ {
		corpus[fmt.Sprintf("gnp-%d", seed)] = gen.GNP(24, 0.2, seed)
	}
	for seed := int64(0); seed < 20; seed++ {
		corpus[fmt.Sprintf("forest-%d", seed)] = gen.ForestUnion(30, 2, seed)
	}
	return corpus
}

// TestCanonicalHashDistinct is the property-style collision sweep: a corpus
// of pairwise non-isomorphic graphs must produce pairwise distinct hashes.
func TestCanonicalHashDistinct(t *testing.T) {
	hashes := map[string]string{}
	for name, g := range distinctCorpus() {
		h := graph.CanonicalHash(g)
		if prev, ok := hashes[h]; ok {
			t.Fatalf("hash collision between %s and %s (%s)", prev, name, h)
		}
		hashes[h] = name
	}
}

// TestCanonicalEdgeOrderTransfersColorings is the property the service
// cache relies on: a proper edge coloring transferred between isomorphic
// copies via the edge orders of their canonical forms stays proper.
func TestCanonicalEdgeOrderTransfersColorings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, g := range canonicalFamilies() {
		if g.M() == 0 {
			continue
		}
		// A greedy (2Δ−1) proper edge coloring of g.
		colors := greedyEdgeColors(g)
		palette := int64(2*g.MaxDegree() - 1)
		if err := verify.EdgeColoring(g, colors, palette); err != nil {
			t.Fatalf("%s: greedy coloring invalid: %v", name, err)
		}
		permG := graph.CanonicalLabeling(g)
		ordG, _ := graph.CanonicalForm(g, permG)

		vperm := rng.Perm(g.N())
		h := relabel(g, vperm)
		permH := graph.CanonicalLabeling(h)
		ordH, _ := graph.CanonicalForm(h, permH)

		transferred := make([]int64, h.M())
		for i := range ordG {
			transferred[ordH[i]] = colors[ordG[i]]
		}
		if err := verify.EdgeColoring(h, transferred, palette); err != nil {
			t.Fatalf("%s: transferred coloring invalid: %v", name, err)
		}
	}
}

// greedyEdgeColors produces a proper (2Δ−1)-edge-coloring sequentially.
func greedyEdgeColors(g *graph.Graph) []int64 {
	colors := make([]int64, g.M())
	for e := range colors {
		colors[e] = -1
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		used := map[int64]bool{}
		for _, a := range g.Adj(u) {
			if colors[a.Edge] >= 0 {
				used[colors[a.Edge]] = true
			}
		}
		for _, a := range g.Adj(v) {
			if colors[a.Edge] >= 0 {
				used[colors[a.Edge]] = true
			}
		}
		for c := int64(0); ; c++ {
			if !used[c] {
				colors[e] = c
				break
			}
		}
	}
	return colors
}

// perfectMatching returns n/2 disjoint edges {2i, 2i+1}: every vertex is a
// twin of its partner and of no one else.
func perfectMatching(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v += 2 {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// disjointCycles returns the disjoint union of cycles of the given lengths.
func disjointCycles(lengths ...int) *graph.Graph {
	n := 0
	for _, l := range lengths {
		n += l
	}
	b := graph.NewBuilder(n)
	first := 0
	for _, l := range lengths {
		for i := 0; i < l; i++ {
			b.AddEdge(first+i, first+(i+1)%l)
		}
		first += l
	}
	return b.MustBuild()
}

// preferentialAttachment is gen.PreferentialAttachment(n, 2, seed), the
// graph family the colord benchmark workloads submit.
func preferentialAttachment(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.PreferentialAttachment(n, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkMatchesReference fails unless CanonicalLabeling and CanonicalForm
// return exactly the reference's labels, edge order and hash on g.
func checkMatchesReference(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	want := graph.RefCanonicalLabeling(g)
	got := graph.CanonicalLabeling(g)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: labeling differs from the reference:\n got %v\nwant %v", name, got, want)
	}
	wantOrd, wantHash := graph.RefCanonicalForm(g, want)
	gotOrd, gotHash := graph.CanonicalForm(g, got)
	if gotHash != wantHash {
		t.Fatalf("%s: hash %s, reference %s", name, gotHash, wantHash)
	}
	if !slices.Equal(gotOrd, wantOrd) {
		t.Fatalf("%s: edge order differs from the reference:\n got %v\nwant %v", name, gotOrd, wantOrd)
	}
}

// TestCanonicalMatchesReference pins the labels, edge order and hash to the
// reference implementation on every corpus, and on a random relabeling of
// each graph: the relabeled copy takes the reference through different
// vertex orders and candidate choices.
func TestCanonicalMatchesReference(t *testing.T) {
	cases := map[string]*graph.Graph{}
	for name, g := range canonicalFamilies() {
		cases["family/"+name] = g
	}
	for name, g := range distinctCorpus() {
		cases["distinct/"+name] = g
	}
	// Twin cells: every member of a cell is a twin of every other, adjacent
	// (complete) or not (star leaves, bipartite sides, edgeless).
	for _, n := range []int{2, 3, 17, 64} {
		cases[fmt.Sprintf("twins/star-%d", n)] = graph.Star(n)
		cases[fmt.Sprintf("twins/complete-%d", n)] = graph.Complete(n)
		cases[fmt.Sprintf("twins/bipartite-%d-%d", n/3, n-n/3)] = graph.CompleteBipartite(n/3, n-n/3)
		cases[fmt.Sprintf("twins/edgeless-%d", n)] = graph.NewBuilder(n).MustBuild()
	}
	// Symmetric cells without twins, where the full 16-candidate scan and
	// the certificates still run (a matching's partners are twins, but the
	// cell holds n/2 twin pairs).
	for _, n := range []int{5, 33, 64} {
		cases[fmt.Sprintf("symmetric/cycle-%d", n)] = graph.Cycle(n)
	}
	cases["symmetric/grid-4x4"] = gen.Grid(4, 4)
	cases["symmetric/grid-6x9"] = gen.Grid(6, 9)
	cases["symmetric/matching-16"] = perfectMatching(16)
	cases["symmetric/matching-48"] = perfectMatching(48)
	// Regular graphs: refinement alone splits nothing, and the candidates
	// of a cell are mostly not automorphic, so their certificates differ
	// and the minimum decides the step.
	cases["regular/cycles-3-4"] = disjointCycles(3, 4)
	cases["regular/cycles-3-3-6"] = disjointCycles(3, 3, 6)
	cases["regular/cycles-5-6-7"] = disjointCycles(5, 6, 7)
	for seed := int64(0); seed < 6; seed++ {
		g, err := gen.NearRegular(40, 3+int(seed%2), seed)
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("regular/near-%02d", seed)] = g
	}
	for seed := int64(0); seed < 32; seed++ {
		cases[fmt.Sprintf("pa/%02d", seed)] = preferentialAttachment(t, 1000, seed)
	}

	rng := rand.New(rand.NewSource(5))
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		g := cases[name]
		relabeled := relabel(g, rng.Perm(g.N()))
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkMatchesReference(t, "original", g)
			checkMatchesReference(t, "relabeled", relabeled)
		})
	}
}

// TestCanonicalLabelingAllocs pins the allocations of one labeling to a
// constant: the scratch buffers of the call and the returned labeling, and
// nothing per refinement pass, per candidate or per certificate. The
// preferential-attachment graph takes only twin steps; the cycle and the
// grid refine 16 candidates per step and compare their certificates.
func TestCanonicalLabelingAllocs(t *testing.T) {
	const maxAllocs = 12
	for name, g := range map[string]*graph.Graph{
		"pa-1000":   preferentialAttachment(t, 1000, 1),
		"cycle-64":  graph.Cycle(64),
		"grid-8x12": gen.Grid(8, 12),
	} {
		if allocs := testing.AllocsPerRun(5, func() { graph.CanonicalLabeling(g) }); allocs > maxAllocs {
			t.Errorf("%s: CanonicalLabeling allocates %.0f times per call, want at most %d", name, allocs, maxAllocs)
		}
	}
}

// BenchmarkCanonicalLabeling prices the labeling on the graph family of the
// colord benchmark workloads (16 PA(1000,2) graphs, one labeling each per
// op) and on the 1024-vertex star, a twin-heavy input the default cache
// bound admits; the reference sub-benchmarks run the original
// implementation on the same inputs.
func BenchmarkCanonicalLabeling(b *testing.B) {
	pa := make([]*graph.Graph, 16)
	for i := range pa {
		pa[i] = preferentialAttachment(b, 1000, int64(i))
	}
	inputs := []struct {
		name   string
		graphs []*graph.Graph
	}{
		{"pa-1000x16", pa},
		{"star-1024", []*graph.Graph{graph.Star(1024)}},
	}
	for _, in := range inputs {
		for _, impl := range []struct {
			name  string
			label func(*graph.Graph) []int32
		}{
			{"current", graph.CanonicalLabeling},
			{"reference", graph.RefCanonicalLabeling},
		} {
			b.Run(in.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					for _, g := range in.graphs {
						impl.label(g)
					}
				}
			})
		}
	}
}
