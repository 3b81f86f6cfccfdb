package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bucketDegeneracy is the degeneracy by the lazy bucket queue that
// graph.DegeneracyOrder first used: one growing list per current degree,
// with stale entries skipped on pop. It is the reference the bin sort is
// checked against.
func bucketDegeneracy(g *graph.Graph) int {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		maxDeg = max(maxDeg, deg[v])
	}
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	degeneracy, cur := 0, 0
	for left := n; left > 0; left-- {
		if cur > 0 {
			cur--
		}
		var v int
		for {
			for len(buckets[cur]) == 0 {
				cur++
			}
			b := buckets[cur]
			v = b[len(b)-1]
			buckets[cur] = b[:len(b)-1]
			if !removed[v] && deg[v] == cur {
				break
			}
		}
		removed[v] = true
		degeneracy = max(degeneracy, cur)
		for _, a := range g.Adj(v) {
			if u := int(a.To); !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
			}
		}
	}
	return degeneracy
}

// checkDegeneracy fails t unless DegeneracyOrder's degeneracy is the
// reference's and its order is a permutation in which every vertex has
// at most that many neighbors later on.
func checkDegeneracy(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	order, d := graph.DegeneracyOrder(g)
	if want := bucketDegeneracy(g); d != want {
		t.Fatalf("%s: degeneracy %d, bucket queue %d", name, d, want)
	}
	if len(order) != g.N() {
		t.Fatalf("%s: order of %d vertices for %d", name, len(order), g.N())
	}
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if pos[v] >= 0 {
			t.Fatalf("%s: vertex %d twice in the order", name, v)
		}
		pos[v] = i
	}
	for v := 0; v < g.N(); v++ {
		later := 0
		for _, a := range g.Adj(v) {
			if pos[a.To] > pos[v] {
				later++
			}
		}
		if later > d {
			t.Fatalf("%s: vertex %d has %d later neighbors, degeneracy %d", name, v, later, d)
		}
	}
}

// TestDegeneracyMatchesBucketQueue checks the bin-sort peel against the
// bucket queue on both generator families the benchmark colors,
// preferential attachment and near-regular graphs, and on every graph of
// at most six vertices.
func TestDegeneracyMatchesBucketQueue(t *testing.T) {
	for _, seed := range []int64{1, 2017, 3501} {
		for _, m := range []int{1, 2, 5} {
			g, err := gen.PreferentialAttachment(2000, m, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkDegeneracy(t, "preferential-attachment", g)
		}
		for _, d := range []int{3, 8, 16} {
			g, err := gen.NearRegular(2000, d, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkDegeneracy(t, "near-regular", g)
		}
	}
	for n := 0; n <= 6; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			b := graph.NewBuilder(n)
			for i, p := range pairs {
				if mask&(1<<i) != 0 {
					b.AddEdge(p[0], p[1])
				}
			}
			checkDegeneracy(t, "exhaustive", b.MustBuild())
		}
	}
}
