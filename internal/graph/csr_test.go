package graph

import (
	"math/rand"
	"testing"
)

func csrRandomGraph(t *testing.T, seed int64, n int, p float64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkCSR asserts every structural invariant of the graph's compressed
// sparse rows: the offsets partition the arc array, each vertex's arc
// range is Adj(v) in port order, and the mates are the edge-reversal
// involution, each mate lying in the neighbor's range on the same edge and
// pointing back.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	if got, want := g.NumArcs(), 2*g.M(); got != want {
		t.Fatalf("NumArcs = %d, want %d", got, want)
	}
	mate := g.Mates()
	if len(mate) != g.NumArcs() {
		t.Fatalf("len(Mates) = %d, want %d", len(mate), g.NumArcs())
	}
	next := 0
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(v)
		lo, hi := g.Range(v)
		if lo != next || hi-lo != len(adj) || g.Degree(v) != len(adj) {
			t.Fatalf("vertex %d: range [%d,%d) after %d, degree %d, Adj %d", v, lo, hi, next, g.Degree(v), len(adj))
		}
		next = hi
		for p, a := range adj {
			j := lo + p
			m := int(mate[j])
			nlo, nhi := g.Range(int(a.To))
			if m < nlo || m >= nhi {
				t.Fatalf("arc %d: mate %d outside neighbor %d's range [%d,%d)", j, m, a.To, nlo, nhi)
			}
			if int(mate[m]) != j {
				t.Fatalf("mates not an involution at arc %d", j)
			}
			if b := g.Adj(int(a.To))[m-nlo]; b.Edge != a.Edge || int(b.To) != v {
				t.Fatalf("arc %d (%d→%d over %d): mate is %d→%d over %d", j, v, a.To, a.Edge, a.To, b.To, b.Edge)
			}
		}
	}
	if next != g.NumArcs() {
		t.Fatalf("ranges cover %d of %d arcs", next, g.NumArcs())
	}
}

func TestCSRRoundTripRandom(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n    int
		p    float64
	}{{1, 50, 0.1}, {2, 120, 0.05}, {3, 40, 0.5}, {4, 200, 0.02}} {
		checkCSR(t, csrRandomGraph(t, tc.seed, tc.n, tc.p))
	}
}

func TestCSREdgeCases(t *testing.T) {
	empty := NewBuilder(0).MustBuild()
	checkCSR(t, empty)
	if empty.N() != 0 || empty.NumArcs() != 0 {
		t.Fatal("empty graph malformed")
	}
	isolated := NewBuilder(7).MustBuild() // vertices, no edges
	checkCSR(t, isolated)
	for v := 0; v < 7; v++ {
		if lo, hi := isolated.Range(v); lo != 0 || hi != 0 {
			t.Fatalf("isolated vertex %d has arc range [%d,%d)", v, lo, hi)
		}
	}
	checkCSR(t, Star(20))
	checkCSR(t, Complete(25))
	checkCSR(t, Path(2))
	checkCSR(t, Cycle(3))
}
