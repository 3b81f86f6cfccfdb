package cd

import (
	"context"
	"fmt"

	"repro/internal/cliques"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
)

// Decomposition is a (p, q)-clique-decomposition per §2: a partition of the
// vertex set into Parts classes such that every clique of the cover,
// restricted to one class, has at most CliqueBound vertices.
type Decomposition struct {
	// Class assigns each vertex its class index in [0, Parts).
	Class []int64
	// Parts is p ≤ (t·D)^x.
	Parts int64
	// CliqueBound is the guaranteed q ≤ S/tˣ + 2 (Theorem 2.4).
	CliqueBound int
	Stats       sim.Stats
}

// Decompose computes the ((t·D)^x, S/tˣ+2)-clique-decomposition of
// Theorem 2.4 by running x levels of clique connectors (the first x levels
// of Algorithm 1, without the final coloring stage).
func Decompose(ctx context.Context, g *graph.Graph, cover *cliques.Cover, t, x int, opt Options) (*Decomposition, error) {
	r, err := begin(ctx, g, cover, t, x, true, opt)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return &Decomposition{Class: make([]int64, g.N()), Parts: 1, CliqueBound: 1}, nil
	}
	class, recStats, err := r.rec(ctx, g, r.seed, cover.Cliques, cover.MaxCliqueSize(), x)
	if err != nil {
		return nil, err
	}
	// Theorem 2.4's clique bound: the declared shrinkage chain.
	bound := cover.MaxCliqueSize()
	for i := 0; i < x; i++ {
		bound = util.CeilDiv(bound, t)
	}
	return &Decomposition{
		Class:       class,
		Parts:       pow64(int64(r.d*(t-1)+1), x),
		CliqueBound: bound,
		Stats:       r.seedStats.Seq(recStats),
	}, nil
}

// VerifyDecomposition checks the defining property against the cover: each
// cover clique restricted to any one class has at most bound vertices.
func VerifyDecomposition(cover *cliques.Cover, dec *Decomposition) error {
	for qi, cl := range cover.Cliques {
		// Check the bound at increment time rather than ranging over the
		// count map afterwards: the first violation in clique order is
		// reported, independent of map iteration order.
		counts := make(map[int64]int)
		for _, v := range cl {
			class := dec.Class[v]
			counts[class]++
			if cnt := counts[class]; cnt > dec.CliqueBound {
				return fmt.Errorf("cd: clique %d has %d vertices in class %d, bound %d", qi, cnt, class, dec.CliqueBound)
			}
		}
	}
	for _, c := range dec.Class {
		if c < 0 || c >= dec.Parts {
			return fmt.Errorf("cd: class %d outside [0,%d)", c, dec.Parts)
		}
	}
	return nil
}
