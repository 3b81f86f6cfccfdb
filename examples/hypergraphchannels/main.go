// Channel allocation for group communication — vertex coloring of a graph
// with bounded diversity (§1.2, Table 2).
//
// Multicast sessions each span 3 stations (a 3-uniform hypergraph). Two
// sessions interfere when they share a station, so sessions need channels
// such that interfering sessions differ — a vertex coloring of the
// hypergraph's line graph. That graph has diversity D ≤ 3: every session
// belongs to at most 3 station-cliques. CD-Coloring exploits exactly this
// structure (Theorem 3.3(i): D^{x+1}·S colors), where a general-purpose
// (Δ+1) algorithm sees only the much blunter maximum degree.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	distcolor "repro"
)

func main() {
	const (
		stations = 120
		sessions = 400
	)
	rng := rand.New(rand.NewSource(23))
	edges := make([][]int, 0, sessions)
	for s := 0; s < sessions; s++ {
		perm := rng.Perm(stations)
		edges = append(edges, perm[:3])
	}
	h, err := distcolor.NewHypergraph(stations, 3, edges)
	if err != nil {
		log.Fatal(err)
	}
	conflict, cover, err := distcolor.HypergraphLineCover(h)
	if err != nil {
		log.Fatal(err)
	}
	d, s := cover.Diversity(), cover.MaxCliqueSize()
	fmt.Printf("sessions: %d, stations: %d — conflict graph n=%d m=%d Δ=%d, diversity D=%d, clique size S=%d\n",
		sessions, stations, conflict.N(), conflict.M(), conflict.MaxDegree(), d, s)

	ctx := context.Background()
	for x := 1; x <= 3; x++ {
		res, cdErr := distcolor.Run(ctx, conflict, distcolor.AlgoVertexCD, distcolor.Params{"x": float64(x)}, distcolor.Options{Cover: cover})
		if cdErr != nil {
			log.Fatal(cdErr)
		}
		if err := distcolor.CheckVertexColoring(conflict, res.Colors, res.Palette); err != nil {
			log.Fatal(err)
		}
		bound := s
		for i := 0; i <= x; i++ {
			bound *= d
		}
		fmt.Printf("CD-coloring x=%d: %4d channels (bound D^%d·S = %d), %5d rounds\n",
			x, res.Palette, x+1, bound, res.Stats.Rounds)
	}

	// Reference: the (Δ+1) black box ignores the clique structure.
	plain, err := distcolor.Run(ctx, conflict, distcolor.AlgoVertexDelta1, nil, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(Δ+1) black box:  %4d channels, %5d rounds — fewest channels, most rounds\n",
		plain.Palette, plain.Stats.Rounds)
	fmt.Println("\nthe Table-2 trade-off: diversity-aware decomposition buys rounds with channels")
}
