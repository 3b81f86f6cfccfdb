// Package verify contains the correctness oracles every test and benchmark
// in this repository runs against: proper-coloring checks with palette
// bounds for vertices and edges, plus validators for the structural objects
// of the paper (H-partitions, orientations). Benchmarks call these too — a
// benchmark that produces an improper coloring fails rather than reporting
// a meaningless number.
package verify

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// VertexColoring checks that colors is a proper vertex coloring of g using
// colors in [0, palette).
func VertexColoring(g *graph.Graph, colors []int64, palette int64) error {
	if len(colors) != g.N() {
		return fmt.Errorf("verify: %d colors for %d vertices", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 || colors[v] >= palette {
			return fmt.Errorf("verify: vertex %d color %d outside [0,%d)", v, colors[v], palette)
		}
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if colors[u] == colors[v] {
			return fmt.Errorf("verify: adjacent vertices %d,%d share color %d", u, v, colors[u])
		}
	}
	return nil
}

// EdgeColoring checks that colors is a proper edge coloring of g (one color
// per edge identifier; edges sharing an endpoint get distinct colors) using
// colors in [0, palette).
func EdgeColoring(g *graph.Graph, colors []int64, palette int64) error {
	if len(colors) != g.M() {
		return fmt.Errorf("verify: %d colors for %d edges", len(colors), g.M())
	}
	for e := 0; e < g.M(); e++ {
		if colors[e] < 0 || colors[e] >= palette {
			return fmt.Errorf("verify: edge %d color %d outside [0,%d)", e, colors[e], palette)
		}
	}
	// One open-addressing table of at least 2Δ slots serves every vertex:
	// a slot belongs to the vertex whose stamp it carries, so moving to
	// the next vertex empties the table without clearing it, and the load
	// stays at most one half whatever the palette.
	size := 1
	for size < 2*g.MaxDegree() {
		size *= 2
	}
	shift := 64 - bits.TrailingZeros(uint(size))
	seen := make([]colorSlot, size)
	for v := 0; v < g.N(); v++ {
		stamp := uint32(v) + 1
		for _, a := range g.Adj(v) {
			c := colors[a.Edge]
			// Fibonacci hashing: the top bits of c·2⁶⁴/φ spread runs of
			// consecutive colors over the table.
			i := int((uint64(c) * 0x9e3779b97f4a7c15) >> shift)
			for seen[i].stamp == stamp && seen[i].color != c {
				i = (i + 1) & (size - 1)
			}
			if seen[i].stamp == stamp {
				return fmt.Errorf("verify: edges %d,%d at vertex %d share color %d", seen[i].edge, a.Edge, v, c)
			}
			seen[i] = colorSlot{color: c, edge: a.Edge, stamp: stamp}
		}
	}
	return nil
}

// colorSlot is one slot of EdgeColoring's table: edge, the first of its
// color in port order at vertex stamp−1, has color color. A slot of stamp
// 0 is empty.
type colorSlot struct {
	color int64
	edge  int32
	stamp uint32
}

// PaletteUsed returns the number of distinct colors appearing in colors.
func PaletteUsed(colors []int64) int {
	seen := make(map[int64]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

// MaxColor returns the largest color value, or -1 for an empty slice.
func MaxColor(colors []int64) int64 {
	max := int64(-1)
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max
}

// HPartition checks the defining property of an H-partition with degree
// bound d: every vertex in part i has at most d neighbors in parts ≥ i.
// part[v] values must lie in [0, numParts).
func HPartition(g *graph.Graph, part []int, numParts, d int) error {
	if len(part) != g.N() {
		return fmt.Errorf("verify: %d part labels for %d vertices", len(part), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if part[v] < 0 || part[v] >= numParts {
			return fmt.Errorf("verify: vertex %d part %d outside [0,%d)", v, part[v], numParts)
		}
		later := 0
		for _, a := range g.Adj(v) {
			if part[a.To] >= part[v] {
				later++
			}
		}
		if later > d {
			return fmt.Errorf("verify: vertex %d (part %d) has %d ≥-part neighbors, bound %d", v, part[v], later, d)
		}
	}
	return nil
}

// AcyclicOrientation checks acyclicity and the out-degree bound of o.
func AcyclicOrientation(o *graph.Orientation, maxOut int) error {
	if !o.IsAcyclic() {
		return fmt.Errorf("verify: orientation has a directed cycle")
	}
	if d := o.MaxOutDegree(); d > maxOut {
		return fmt.Errorf("verify: orientation out-degree %d exceeds bound %d", d, maxOut)
	}
	return nil
}
