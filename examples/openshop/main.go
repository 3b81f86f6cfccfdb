// Open-shop scheduling via edge coloring — the §1.2 motivation from [37]
// ("Short shop schedules").
//
// J jobs must each visit a subset of M machines for one unit of time, in
// any order; a machine processes one job at a time and a job is on one
// machine at a time. Model tasks as edges of a bipartite job–machine
// graph: a proper edge coloring is exactly a conflict-free timetable, and
// the palette size is the makespan. By König's theorem the optimum is Δ;
// the distributed algorithms trade makespan slack for coordination rounds
// when the shop floor has no central scheduler.
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
		jobs     = 300
		machines = 60
		tasksPer = 18 // machines visited per job
	)
	rng := rand.New(rand.NewSource(11))
	b := distcolor.NewBuilder(jobs + machines)
	total := 0
	for j := 0; j < jobs; j++ {
		perm := rng.Perm(machines)
		for _, m := range perm[:tasksPer] {
			b.AddEdge(j, jobs+m) // one unit task: job j on machine m
			total++
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	delta := g.MaxDegree()
	fmt.Printf("open shop: %d jobs × %d machines, %d unit tasks, Δ = %d (optimal makespan)\n",
		jobs, machines, total, delta)

	report := func(name string, palette int64, rounds int, colors []int64) {
		if err := distcolor.CheckEdgeColoring(g, colors, palette); err != nil {
			log.Fatalf("%s: invalid timetable: %v", name, err)
		}
		fmt.Printf("%-22s makespan %4d (%.2f× optimum)  %6d coordination rounds\n",
			name, palette, float64(palette)/float64(delta), rounds)
	}

	ctx := context.Background()
	star, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeStar, distcolor.Params{"x": 1}, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	report("star partition (4Δ)", star.Palette, star.Stats.Rounds, star.Colors)

	star2, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeStar, distcolor.Params{"x": 2}, distcolor.Options{})
	if err == nil {
		report("star partition (8Δ)", star2.Palette, star2.Stats.Rounds, star2.Colors)
	}

	classic, err := distcolor.Run(ctx, g, distcolor.AlgoEdgeGreedy, nil, distcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	report("classical (2Δ−1)", classic.Palette, classic.Stats.Rounds, classic.Colors)

	fmt.Println("\nthe Table-1 trade-off, on a shop floor: more slots ⇒ fewer rounds to agree on the timetable")
}
