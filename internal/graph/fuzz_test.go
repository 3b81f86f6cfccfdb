package graph

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList drives the edge-list parser with arbitrary input (run
// via `make fuzz`). Invariants on accepted input: the graph is well-formed
// (non-negative n, endpoints in range — the parser, not the int32-narrowing
// Builder, must enforce this) and WriteEdgeList∘ReadEdgeList is the
// identity on the edge multiset.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("n 5\n# comment\n0 1\n")
	f.Add("")
	f.Add("n -1\n")
	f.Add("n 3\n0 99\n")
	f.Add("4294967299 1\n")
	f.Add("0 1\n0 1\n1 0\n")
	f.Fuzz(func(t *testing.T, s string) {
		// Bound the memory a single input can demand: a tiny input can
		// declare a huge vertex count, which is legal but allocates O(n).
		for _, field := range strings.Fields(s) {
			if v, err := strconv.Atoi(field); err == nil && (v > 1<<20 || v < -(1<<20)) {
				t.Skip("declared size out of fuzz bounds")
			}
		}
		g, err := ReadEdgeList(strings.NewReader(s))
		if err != nil {
			return // rejected input is fine; crashing or wrapping is not
		}
		if g.N() < 0 {
			t.Fatalf("accepted graph with negative vertex count %d", g.N())
		}
		for _, e := range g.Edges() {
			if e.U < 0 || e.V < 0 || int(e.U) >= g.N() || int(e.V) >= g.N() {
				t.Fatalf("accepted out-of-range edge {%d,%d} with n=%d", e.U, e.V, g.N())
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("WriteEdgeList on accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written edge list: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: n %d→%d, m %d→%d", g.N(), g2.N(), g.M(), g2.M())
		}
		for e := 0; e < g.M(); e++ {
			u1, v1 := g.Endpoints(e)
			u2, v2 := g2.Endpoints(e)
			if u1 != u2 || v1 != v2 {
				t.Fatalf("round trip changed edge %d: {%d,%d}→{%d,%d}", e, u1, v1, u2, v2)
			}
		}
	})
}

// FuzzCanonicalLabeling checks canonical labeling on arbitrary simple
// graphs of at most 48 vertices (run via `make fuzz`): the labeling must be
// a bijection onto 0..n-1, and the labeling, the canonical edge order and
// the hash must equal the reference implementation's. The first byte picks
// the vertex count; each further pair of bytes adds an edge, with
// self-loops and repeated edges dropped.
func FuzzCanonicalLabeling(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})                      // triangle
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})          // star
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})    // path
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})    // cycle
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7})                // perfect matching
	f.Add([]byte{7, 0, 3, 0, 4, 1, 3, 1, 4, 2, 3, 2, 4})    // K_{3,2} plus an isolated vertex
	f.Add([]byte{48, 1, 2, 3, 5, 8, 13, 21, 34, 7, 11, 29}) // sparse, mostly isolated
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data, 48)
		perm := CanonicalLabeling(g)
		seen := make([]bool, g.N())
		for v, p := range perm {
			if p < 0 || int(p) >= g.N() || seen[p] {
				t.Fatalf("perm[%d]=%d is not a bijection onto [0,%d)", v, p, g.N())
			}
			seen[p] = true
		}
		want := refCanonicalLabeling(g)
		if !slices.Equal(perm, want) {
			t.Fatalf("labeling differs from the reference on %v:\n got %v\nwant %v", g.Edges(), perm, want)
		}
		ord, hash := CanonicalForm(g, perm)
		wantOrd, wantHash := refCanonicalForm(g, want)
		if hash != wantHash || !slices.Equal(ord, wantOrd) {
			t.Fatalf("canonical form differs from the reference on %v: hash %s, want %s", g.Edges(), hash, wantHash)
		}
	})
}

// FuzzLineGraph checks LineGraph against the Builder path it bypasses
// (builderLineGraph) on arbitrary simple graphs of at most 64 vertices
// (run via `make fuzz`; colord's edge algorithms read the line table of
// every submitted graph): the edge list, every adjacency order and Δ must
// be identical, and both the graph and its line graph must pass the layout
// check (checkCSR). The line table of the same graph must then hold, row
// by row and as a set, the neighbors of LineGraph's adjacency, with L's
// degrees and Δ (lineTableDiff). The input decodes as in
// FuzzCanonicalLabeling.
func FuzzLineGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})                                           // triangle
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})                               // star
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})                         // path
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}) // K5
	f.Add([]byte{7, 0, 3, 0, 4, 1, 3, 1, 4, 2, 3, 2, 4})                         // K_{3,2} plus isolated vertices
	f.Add([]byte{64, 1, 2, 3, 5, 8, 13, 21, 34, 55, 7, 11, 63})                  // sparse, mostly isolated
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data, 64)
		lg := LineGraph(g)
		if d := graphDiff(lg, builderLineGraph(g)); d != "" {
			t.Fatalf("line graph of %v: %s", g.Edges(), d)
		}
		checkCSR(t, g)
		checkCSR(t, lg)
		if d := lineTableDiff(g); d != "" {
			t.Fatalf("line table of %v: %s", g.Edges(), d)
		}
	})
}

// fuzzGraph decodes fuzz input into a simple graph on data[0] mod
// (maxN+1) vertices; each further pair of bytes adds an edge, with
// self-loops and repeated edges dropped.
func fuzzGraph(data []byte, maxN int) *Graph {
	if len(data) == 0 {
		return NewBuilder(0).MustBuild()
	}
	n := int(data[0]) % (maxN + 1)
	b := NewBuilder(n)
	if n == 0 {
		return b.MustBuild()
	}
	added := make(map[[2]int]bool)
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u > v {
			u, v = v, u
		}
		if u == v || added[[2]int{u, v}] {
			continue
		}
		added[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}
