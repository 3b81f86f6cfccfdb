// Package arbor implements Section 5 of the paper: edge coloring of graphs
// whose arboricity a is bounded away from the maximum degree Δ, culminating
// in the headline (Δ + o(Δ))-edge-coloring.
//
// The building blocks are
//
//   - HPartition: the Nash–Williams peeling of [4] — vertices repeatedly
//     shed when their residual degree drops to the threshold, producing
//     parts H₁…H_ℓ such that every vertex has ≤ θ neighbors in its own or
//     higher parts, plus the induced acyclic orientation with out-degree ≤ θ;
//   - Merge: the Lemma 5.1 crossing-edge coloring procedure;
//   - ColorParts: Theorem 5.2's skeleton — H-partition, part-internal edges
//     by the black box, crossing edges by Merge — which the [4]-style
//     baseline (internal/baseline) shares;
//   - ColorHPartition (Theorem 5.2): (Δ+O(a)) colors in O(a·log n) rounds;
//   - ColorSqrt (Theorem 5.3): orientation connectors square-root both
//     parameters, giving Δ+O(√(Δa))+O(a) colors in O(√a·log n) rounds;
//   - ColorRecursive (Theorem 5.4): bipartite orientation connectors give
//     (Δ^{1/x}+â^{1/x}+O(1))^x colors;
//   - ColorAdaptive (Corollary 5.5): parameter selection for Δ(1+o(1))
//     colors whenever a is polynomially below Δ.
package arbor

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Threshold returns the H-partition degree threshold θ = ⌈q·a⌉ (at least 1;
// q > 2 is required for logarithmically many parts).
func Threshold(a int, q float64) int {
	if a < 1 {
		a = 1
	}
	return max(1, int(math.Ceil(q*float64(a))))
}

// HPartitionResult is an H-partition of a graph together with its induced
// acyclic orientation.
type HPartitionResult struct {
	// Part assigns each vertex its part index (0-based; part i is the set
	// of vertices peeled in phase i).
	Part []int
	// NumParts is ℓ, the number of parts.
	NumParts int
	// Threshold is the degree bound θ: every vertex has at most θ neighbors
	// in parts with index ≥ its own.
	Threshold int
	// Orient orients every edge toward the higher (part, index) endpoint;
	// it is acyclic with out-degree ≤ θ.
	Orient *graph.Orientation
	Stats  sim.Stats
}

// HPartition computes an H-partition of g with the given degree threshold
// by distributed peeling [4]: in each phase, every remaining vertex whose
// remaining degree is at most θ enters the current part and goes silent.
// When the true arboricity a(G) satisfies θ ≥ (2+ε)a the number of phases
// is O(log n); the round budget is n+4, so a threshold below the peeling
// requirement surfaces as ErrRoundLimit rather than nontermination.
func HPartition(ctx context.Context, eng sim.Exec, g *graph.Graph, threshold int) (*HPartitionResult, error) {
	eng = sim.OrSequential(eng)
	if threshold < 1 {
		return nil, fmt.Errorf("arbor: threshold %d < 1", threshold)
	}
	n := g.N()
	peel := &peelProgram{threshold: threshold, part: make([]int, n)}
	stats, err := eng.Run(ctx, sim.NewTopology(g), peel, n+4)
	if err != nil {
		return nil, fmt.Errorf("arbor: peeling (is the arboricity bound too small?): %w", err)
	}
	part := peel.part
	numParts := 0
	for _, p := range part {
		if p+1 > numParts {
			numParts = p + 1
		}
	}
	return &HPartitionResult{
		Part:      part,
		NumParts:  numParts,
		Threshold: threshold,
		Orient:    graph.OrientByOrder(g, part),
		Stats:     stats,
	}, nil
}

// peelProgram is the peeling as one run-scoped word program. Active
// vertices broadcast a token every round; silence means the sender has
// been peeled. A vertex reading ≤ threshold active neighbors in round r is
// peeled into part r−1, which it records in part[v].
type peelProgram struct {
	threshold int
	part      []int
}

// Scratch implements sim.Factory: the peeling only counts its inbox.
func (*peelProgram) Scratch(int) int { return 0 }

// StepWord implements sim.WordProgram.
//
//distcolor:noalloc
func (p *peelProgram) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	if round == 0 {
		if len(in) == 0 {
			p.part[v] = 0
			return sim.NoWord, true
		}
		return 1, false
	}
	active := 0
	for _, w := range in {
		if w != sim.NoWord {
			active++
		}
	}
	if active <= p.threshold {
		p.part[v] = round - 1
		return sim.NoWord, true
	}
	return 1, false
}

// Internal returns the spanning subgraph of g's part-internal edges, those
// whose endpoints share a part. Its maximum degree is at most θ: a
// vertex's same-part neighbors all counted toward its peeling threshold.
func (hp *HPartitionResult) Internal(g *graph.Graph) *graph.Sub {
	return graph.SpanningSubgraph(g, func(e int) bool {
		u, v := g.Endpoints(e)
		return hp.Part[u] == hp.Part[v]
	})
}

// RestrictOrientation carries an orientation down to a spanning subgraph:
// each kept edge keeps its head.
func RestrictOrientation(o *graph.Orientation, sub *graph.Sub) (*graph.Orientation, error) {
	heads := make([]int32, sub.G.M())
	for e, oe := range sub.EOrig {
		heads[e] = int32(o.Head(int(oe)))
	}
	return graph.NewOrientation(sub.G, heads)
}
