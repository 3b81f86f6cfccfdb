// Quickstart: build a graph, edge-color it with the paper's 4Δ algorithm,
// verify the result, and inspect the distributed cost.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	distcolor "repro"
)

func main() {
	// Build a random graph with ~n·d/2 edges using the public Builder.
	const n, d = 500, 24
	rng := rand.New(rand.NewSource(42))
	b := distcolor.NewBuilder(n)
	seen := map[[2]int]bool{}
	for k := 0; k < n*d/2; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())

	// The paper's star-partition algorithm at x=1: at most 4Δ colors.
	ctx := context.Background()
	res, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeStar, distcolor.Params{"x": 1}, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := distcolor.CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star partition (x=1): palette ≤ %d (4Δ = %d), rounds = %d, messages = %d\n",
		res.Palette, 4*g.MaxDegree(), res.Stats.Rounds, res.Stats.Messages)

	// Compare against the classical distributed (2Δ−1)-edge-coloring: fewer
	// colors, but many more rounds — the trade-off of Table 1.
	base, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeGreedy, nil, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classical 2Δ−1:      palette ≤ %d, rounds = %d, messages = %d\n",
		base.Palette, base.Stats.Rounds, base.Stats.Messages)
	fmt.Printf("round speedup of the paper's algorithm: %.1f×\n",
		float64(base.Stats.Rounds)/float64(res.Stats.Rounds))
}
