// Link scheduling in a wireless sensor network — the motivating application
// of §1.2 ([19]: "link scheduling in sensor networks: distributed edge
// coloring revisited").
//
// Sensors are scattered in the unit square; two sensors within radio range
// share a link. A TDMA schedule must assign every link a time slot so that
// no sensor transmits or receives in two links at once — exactly a proper
// edge coloring, with the frame length equal to the palette size. Fewer
// colors ⇒ shorter frames ⇒ lower latency; fewer rounds ⇒ faster network
// self-configuration after deployment.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	distcolor "repro"
)

func main() {
	const (
		sensors = 800
		radius  = 0.06
	)
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, sensors)
	ys := make([]float64, sensors)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	b := distcolor.NewBuilder(sensors)
	links := 0
	for i := 0; i < sensors; i++ {
		for j := i + 1; j < sensors; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if math.Hypot(dx, dy) < radius {
				b.AddEdge(i, j)
				links++
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d sensors, %d links, max radio degree Δ=%d\n", g.N(), g.M(), g.MaxDegree())
	if g.MaxDegree() < 4 {
		log.Fatal("radio range too small for a meaningful schedule")
	}

	schedule := func(name string, colors []int64, palette int64, rounds int) {
		if err := distcolor.CheckEdgeColoring(g, colors, palette); err != nil {
			log.Fatalf("%s produced an invalid schedule: %v", name, err)
		}
		// Slot utilization: how busy the busiest slot is vs the average.
		busy := make(map[int64]int)
		for _, c := range colors {
			busy[c]++
		}
		peak := 0
		for _, cnt := range busy {
			if cnt > peak {
				peak = cnt
			}
		}
		fmt.Printf("%-22s frame length %4d slots  setup %5d rounds  peak slot %d links\n",
			name, palette, rounds, peak)
	}

	// The paper's 4Δ algorithm: slightly longer frame, far faster setup.
	ctx := context.Background()
	fast, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeStar, distcolor.Params{"x": 1}, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	schedule("star partition (4Δ)", fast.Colors, fast.Palette, fast.Stats.Rounds)

	// Classical (2Δ−1): shortest frame among the distributed options here.
	tight, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeGreedy, nil, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	schedule("classical (2Δ−1)", tight.Colors, tight.Palette, tight.Stats.Rounds)

	// Geometric graphs are sparse (bounded arboricity in practice): the
	// Section 5 pipeline gets close to the Δ+1 optimum.
	arb := distcolor.ArboricityUpperBound(g)
	sparse, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeSparse, distcolor.Params{"arboricity": float64(arb)}, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	schedule(fmt.Sprintf("sparse (%s, a≤%d)", sparse.Algorithm, arb), sparse.Colors, sparse.Palette, sparse.Stats.Rounds)

	fmt.Printf("\nlower bound: any schedule needs ≥ Δ = %d slots; Vizing guarantees Δ+1 = %d exist centrally\n",
		g.MaxDegree(), g.MaxDegree()+1)
}
