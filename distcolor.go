// Package distcolor is a deterministic distributed graph-coloring library:
// a from-scratch Go reproduction of Barenboim, Elkin and Maimon,
// "Deterministic Distributed (Δ+o(Δ))-Edge-Coloring, and Vertex-Coloring of
// Graphs with Bounded Diversity" (PODC 2017).
//
// Every algorithm runs as genuine node programs on a synchronous
// message-passing simulator of the LOCAL model; reported Stats carry the
// executed communication rounds and message counts.
//
// The package is organized around a self-describing algorithm registry
// (registry.go): every algorithm — the §4 star partition, the §5 sparse
// family, the §3 CD-coloring, and the Δ+1 / 2Δ−1 baselines — registers one
// descriptor carrying its name, kind (edge or vertex), declared palette
// formula, and parameter schema with defaults and bounds (algorithms.go).
// The primary entry point is context-first and uniform across the family:
//
//	col, err := distcolor.Run(ctx, g, "edge/sparse",
//	        distcolor.Params{"arboricity": 3}, distcolor.Options{})
//
// Run resolves parameters against the schema, checks applicability,
// executes on the simulator (ctx cancels or times out the run at round
// granularity), verifies the produced coloring, and returns a unified
// Coloring. Run is the only coloring entry point: an algorithm is chosen by
// its registered name (the Algo* constants), never by a dedicated function.
//
// The package also defines the stable wire codec (Request/Response and
// Execute in codec.go) spoken by the colord coloring service: cmd/colord
// serves every registered algorithm over HTTP behind a job queue, a worker
// pool, and a content-addressed result cache keyed by canonical graph
// hashes (CanonicalHash), with per-round streaming traces powered by
// Options.Observer and registry discovery at /v1/algorithms. See
// internal/service, and README.md for a curl quickstart.
//
// See DESIGN.md for the system inventory (§6 covers the service) and
// EXPERIMENTS.md for the paper-versus-measured record of every table and
// figure.
package distcolor

import (
	"io"

	"repro/internal/arbor"
	"repro/internal/cliques"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/vc"
	"repro/internal/verify"
)

// Re-exported core types, so downstream users can build graphs and covers
// without reaching into internal packages.
type (
	// Graph is an immutable simple undirected graph with stable edge IDs.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// Hypergraph is a c-uniform hypergraph (diversity-c instances).
	Hypergraph = graph.Hypergraph
	// CliqueCover is a consistent clique identification (§2, footnote 3).
	CliqueCover = cliques.Cover
	// Stats reports executed rounds and messages of a distributed run.
	Stats = sim.Stats
	// Plan names an adaptive parameterization choice (Corollary 5.5).
	Plan = arbor.Plan
	// RoundEvent is one executed simulator round, as delivered to
	// Options.Observer (see internal/sim).
	RoundEvent = sim.RoundEvent
)

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// ReadEdgeList parses a whitespace edge-list (see internal/graph).
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g in the edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Options selects execution parameters shared by all algorithms.
type Options struct {
	// Parallel runs node programs on the goroutine-sharded engine instead
	// of the sequential one. Results are identical; wall-clock differs.
	Parallel bool
	// Observer, when non-nil, receives a RoundEvent after every executed
	// round of every constituent distributed execution (composed algorithms
	// run many). It is purely for tracing: to abort a long run, cancel the
	// context passed to Run.
	Observer func(RoundEvent)
	// Cover supplies the clique cover required by algorithms registered
	// with NeedsCover (vertex/cd); wire requests carry it as
	// GraphSpec.Cliques.
	Cover *CliqueCover
}

func (o Options) engine() sim.Exec {
	base := sim.Sequential
	if o.Parallel {
		base = sim.Parallel
	}
	return sim.Instrumented(base, o.Observer, 0)
}

func (o Options) vc() vc.Options { return vc.Options{Exec: o.engine()} }

// LineCover builds the line graph of g together with its canonical
// diversity-2 clique cover. Line-graph vertex e is g's edge e, so
// vertex-coloring the result edge-colors g.
func LineCover(g *Graph) (*Graph, *CliqueCover, error) { return cliques.LineCover(g) }

// NewHypergraph validates a c-uniform hypergraph.
func NewHypergraph(nVert, rank int, edges [][]int) (*Hypergraph, error) {
	return graph.NewHypergraph(nVert, rank, edges)
}

// HypergraphLineCover builds the line graph of a c-uniform hypergraph with
// its canonical diversity-c cover.
func HypergraphLineCover(h *Hypergraph) (*Graph, *CliqueCover, error) {
	return cliques.HypergraphLineCover(h)
}

// NewCliqueCover validates a clique cover for g.
func NewCliqueCover(g *Graph, cliqueLists [][]int32) (*CliqueCover, error) {
	return cliques.NewCover(g, cliqueLists)
}

// CheckEdgeColoring verifies a proper edge coloring within a palette.
func CheckEdgeColoring(g *Graph, colors []int64, palette int64) error {
	return verify.EdgeColoring(g, colors, palette)
}

// CheckVertexColoring verifies a proper vertex coloring within a palette.
func CheckVertexColoring(g *Graph, colors []int64, palette int64) error {
	return verify.VertexColoring(g, colors, palette)
}

// ArboricityUpperBound estimates a(G) from the degeneracy (within 2× of the
// truth) for callers who do not know their graph's arboricity.
func ArboricityUpperBound(g *Graph) int { return graph.ArboricityUpperBound(g) }

// CanonicalHash returns a content address for g's structure: isomorphic
// relabelings of the same graph hash equal (up to the WL-hard ties noted in
// internal/graph), distinct structures hash differently. The colord result
// cache keys on it.
func CanonicalHash(g *Graph) string { return graph.CanonicalHash(g) }

// CanonicalLabeling returns the canonical vertex relabeling behind
// CanonicalHash (perm[v] = canonical index of v).
func CanonicalLabeling(g *Graph) []int32 { return graph.CanonicalLabeling(g) }

// SparsePlans lists the candidate Section 5 parameterizations for (Δ, a)
// at threshold multiplier q with their declared palettes, as considered by
// AlgoEdgeSparse; q is its "q" parameter (0 selects the default 3).
func SparsePlans(delta, a int, q float64) []Plan { return arbor.Plans(delta, a, q) }
