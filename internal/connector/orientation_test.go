package connector

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/util"
)

// oriented is what an orientation connector is compared on: its edge list,
// the base edge and the head of every connector edge, its layout and its
// sides.
type oriented struct {
	edges  []graph.Edge
	eorig  []int32
	heads  []int32
	base   []int32
	inSide []bool
}

func orientedOf(vg *OrientedVirtualGraph) oriented {
	heads := make([]int32, vg.G.M())
	for e := range heads {
		heads[e] = int32(vg.Orient.Head(e))
	}
	return oriented{edges: vg.G.Edges(), eorig: vg.EOrig, heads: heads, base: vg.Base, inSide: vg.InSide}
}

// oracleOriented is the construction buildOriented replaced, kept as its
// reference: the base edges in identifier order, each endpoint numbering
// its in-edges and its out-edges with running counters, the connector
// built by Builder's sort, and the per-edge data carried through the
// permutation a stable sort of the insertion order gives.
func oracleOriented(o *graph.Orientation, inGroup, outGroup int, bipartite bool) oriented {
	g := o.Graph()
	n := g.N()
	inDeg, outDeg := make([]int, n), make([]int, n)
	for e := 0; e < g.M(); e++ {
		inDeg[o.Head(e)]++
		outDeg[o.Tail(e)]++
	}
	base := make([]int32, n+1)
	inCount := make([]int32, n)
	for v := 0; v < n; v++ {
		nIn, nOut := util.CeilDiv(inDeg[v], inGroup), util.CeilDiv(outDeg[v], outGroup)
		total := max(nIn, nOut)
		if bipartite {
			total = nIn + nOut
			inCount[v] = int32(nIn)
		}
		base[v+1] = base[v] + int32(max(total, 1))
	}
	nv := int(base[n])
	var inSide []bool
	if bipartite {
		inSide = make([]bool, nv)
		for v := 0; v < n; v++ {
			for i := base[v]; i < base[v]+inCount[v]; i++ {
				inSide[i] = true
			}
		}
	}
	inSeen, outSeen := make([]int, n), make([]int, n)
	b := graph.NewBuilder(nv)
	var keys []graph.Edge
	var eorig, heads []int32
	for e := 0; e < g.M(); e++ {
		h, tl := o.Head(e), o.Tail(e)
		hv := int(base[h]) + inSeen[h]/inGroup
		inSeen[h]++
		tv := int(base[tl]) + outSeen[tl]/outGroup
		outSeen[tl]++
		if bipartite {
			tv += int(inCount[tl])
		}
		b.AddEdge(tv, hv)
		keys = append(keys, graph.Edge{U: int32(min(tv, hv)), V: int32(max(tv, hv))})
		eorig = append(eorig, int32(e))
		heads = append(heads, int32(hv))
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, c := keys[order[x]], keys[order[y]]
		return a.U < c.U || a.U == c.U && a.V < c.V
	})
	want := oriented{edges: b.MustBuild().Edges(), eorig: make([]int32, len(order)), heads: make([]int32, len(order)), base: base, inSide: inSide}
	for id, ins := range order {
		want.eorig[id] = eorig[ins]
		want.heads[id] = heads[ins]
	}
	return want
}

// orientedDiff names the first difference between both orientation
// connectors of o and the oracle's, or returns "".
func orientedDiff(o *graph.Orientation, inGroup, outGroup int) string {
	for _, bipartite := range []bool{false, true} {
		build := Orientation
		if bipartite {
			build = BipartiteOrientation
		}
		vg, err := build(o, inGroup, outGroup)
		if err != nil {
			return fmt.Sprintf("bipartite=%v: %v", bipartite, err)
		}
		got, want := orientedOf(vg), oracleOriented(o, inGroup, outGroup, bipartite)
		for _, c := range []struct {
			name  string
			equal bool
		}{
			{"edges", slices.Equal(got.edges, want.edges)},
			{"EOrig", slices.Equal(got.eorig, want.eorig)},
			{"heads", slices.Equal(got.heads, want.heads)},
			{"Base", slices.Equal(got.base, want.base)},
			{"InSide", slices.Equal(got.inSide, want.inSide)},
		} {
			if !c.equal {
				return fmt.Sprintf("bipartite=%v, groups %d/%d: %s differ from the oracle's", bipartite, inGroup, outGroup, c.name)
			}
		}
	}
	return ""
}

// peelRanks is a centralized H-partition: phase i removes every vertex
// with at most theta remaining neighbors, and a vertex's rank is its
// phase.
func peelRanks(g *graph.Graph, theta int) []int {
	rank := make([]int, g.N())
	deg := make([]int, g.N())
	left := g.N()
	for v := range deg {
		deg[v] = g.Degree(v)
		rank[v] = -1
	}
	for phase := 0; left > 0; phase++ {
		var peel []int
		for v, d := range deg {
			if rank[v] < 0 && d <= theta {
				peel = append(peel, v)
			}
		}
		if len(peel) == 0 {
			theta++ // no vertex peels: raise the threshold so every graph ends
			continue
		}
		for _, v := range peel {
			rank[v] = phase
			left--
			for _, a := range g.Adj(v) {
				deg[a.To]--
			}
		}
	}
	return rank
}

// TestOrientationConnectorsMatchOracle compares both orientation
// connectors with the construction they replaced on random graphs, under
// random orientations and under the acyclic orientation of an H-partition,
// for every pair of group sizes 1–5.
func TestOrientationConnectorsMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNP(10+rng.Intn(50), 0.05+0.25*rng.Float64(), seed)
		heads := make([]int32, g.M())
		for e := range heads {
			u, v := g.Endpoints(e)
			heads[e] = int32([]int{u, v}[rng.Intn(2)])
		}
		random, err := graph.NewOrientation(g, heads)
		if err != nil {
			t.Fatal(err)
		}
		byPart := graph.OrientByOrder(g, peelRanks(g, 1+rng.Intn(4)))
		for _, o := range []*graph.Orientation{random, byPart} {
			for in := 1; in <= 5; in++ {
				for out := 1; out <= 5; out++ {
					if d := orientedDiff(o, in, out); d != "" {
						t.Fatalf("seed %d: %s", seed, d)
					}
				}
			}
		}
	}
}

// FuzzOrientationConnectors checks both orientation connectors against
// the oracle on arbitrary oriented graphs of at most 64 vertices (run via
// `make fuzz`). data[0] picks the vertex count, data[1] and data[2] the
// in- and out-group sizes 1–8, and each further pair of bytes (x, y) adds
// the edge oriented from x to y, with self-loops and repeated edges
// dropped.
func FuzzOrientationConnectors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 1, 1, 2, 2, 0})                   // directed triangle, groups of 1
	f.Add([]byte{14, 2, 1, 1, 0, 2, 0, 3, 0, 0, 10, 0, 11})    // Figure 3's center in miniature
	f.Add([]byte{8, 1, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6}) // directed path
	f.Add([]byte{64, 4, 3, 1, 2, 3, 5, 8, 13, 21, 34, 55, 63}) // sparse, mostly isolated
	f.Fuzz(func(t *testing.T, data []byte) {
		n, inGroup, outGroup := 0, 1, 1
		if len(data) >= 3 {
			n, inGroup, outGroup = int(data[0])%65, 1+int(data[1])%8, 1+int(data[2])%8
		}
		b := graph.NewBuilder(n)
		dir := make(map[[2]int]int) // {u, v} with u < v → head
		for i := 3; n > 0 && i+1 < len(data); i += 2 {
			x, y := int(data[i])%n, int(data[i+1])%n
			key := [2]int{min(x, y), max(x, y)}
			if _, dup := dir[key]; x == y || dup {
				continue
			}
			dir[key] = y
			b.AddEdge(x, y)
		}
		g := b.MustBuild()
		heads := make([]int32, g.M())
		for e := range heads {
			u, v := g.Endpoints(e)
			heads[e] = int32(dir[[2]int{u, v}])
		}
		o, err := graph.NewOrientation(g, heads)
		if err != nil {
			t.Fatal(err)
		}
		if d := orientedDiff(o, inGroup, outGroup); d != "" {
			t.Fatalf("%v oriented by %v: %s", g.Edges(), heads, d)
		}
	})
}

// TestOrientationAllocsIndependentOfSize pins both orientation connectors
// to a fixed number of allocations: a large graph makes no more than a
// small one.
func TestOrientationAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int, bipartite bool) float64 {
		g := gen.GNP(n, 8/float64(n), int64(n))
		o := graph.OrientByOrder(g, peelRanks(g, 4))
		build := Orientation
		if bipartite {
			build = BipartiteOrientation
		}
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			if _, err := build(o, 3, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, bipartite := range []bool{false, true} {
		if small, large := allocs(50, bipartite), allocs(2000, bipartite); small != large {
			t.Fatalf("bipartite=%v: %v allocations on a small graph and %v on a large one", bipartite, small, large)
		}
	}
}
