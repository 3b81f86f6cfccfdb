package vc

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/sim"
)

// materialized is g's line topology as a vertex topology: the line graph
// L(g), with the given labels, or the canonical edge identifiers u·n+v as
// labels when there are none, so that Linial starts from the colors it
// starts from on the line topology.
func materialized(g *graph.Graph, labels []int64) *sim.Topology {
	if labels == nil {
		n := int64(g.N())
		labels = make([]int64, g.M())
		for e := range labels {
			u, v := g.Endpoints(e)
			labels[e] = int64(u)*n + int64(v)
		}
	}
	return &sim.Topology{G: graph.LineGraph(g), Labels: labels}
}

// sameRun reports how a line-topology run (got) differs from the run of the
// same call on the materialized line graph (want), or "" when colors,
// palette and Stats are identical.
func sameRun(got, want []int64, gotPal, wantPal int64, gotStats, wantStats sim.Stats) string {
	switch {
	case gotStats != wantStats:
		return fmt.Sprintf("stats %+v, materialized %+v", gotStats, wantStats)
	case gotPal != wantPal:
		return fmt.Sprintf("palette %d, materialized %d", gotPal, wantPal)
	case !slices.Equal(got, want):
		return fmt.Sprintf("colors %v, materialized %v", got, want)
	}
	return ""
}

// TestLineTopologyMatchesLineGraph is the differential test of the line
// plane: Linial, Kuhn–Wattenhofer, the class trim and the whole edge black
// box, run on line topologies, must produce the colors and Stats of the
// same calls on the materialized line graph, on every engine. The line
// table orders a row differently from L's ports, which no program reads.
// gnp-sharded has over 3,000 edges, so the parallel engine steps its line
// topology on several shards wherever there are CPUs for them.
func TestLineTopologyMatchesLineGraph(t *testing.T) {
	iso := graph.NewBuilder(9)
	for _, e := range [][2]int{{1, 4}, {4, 6}, {1, 6}, {2, 4}, {6, 7}} {
		iso.AddEdge(e[0], e[1])
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-small", rg(21, 60, 0.12)},
		{"gnp-dense", rg(22, 30, 0.5)},
		{"gnp-sharded", rg(23, 1024, 0.006)},
		{"star", graph.Star(24)},
		{"path", graph.Path(30)},
		{"isolated", iso.MustBuild()},
		{"edgeless", graph.NewBuilder(6).MustBuild()},
	}
	engines := []struct {
		name string
		eng  sim.Engine
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
		{"parallel", sim.Parallel},
	}
	ctx := context.Background()
	for _, gc := range graphs {
		g := gc.g
		line, err := LineTopology(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle := materialized(g, nil)
		for _, ec := range engines {
			t.Run(gc.name+"/"+ec.name, func(t *testing.T) {
				if line.N() != oracle.N() || line.MaxDegree() != oracle.MaxDegree() {
					t.Fatalf("line topology n=%d Δ=%d, materialized n=%d Δ=%d", line.N(), line.MaxDegree(), oracle.N(), oracle.MaxDegree())
				}
				m0 := EdgeIDBound(g)
				lin, err := linial.Reduce(ctx, ec.eng, line, m0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := linial.Reduce(ctx, ec.eng, oracle, m0)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameRun(lin.Colors, want.Colors, lin.Palette, want.Palette, lin.Stats, want.Stats); d != "" {
					t.Fatalf("linial: %s", d)
				}

				// Both reductions start from Linial's coloring; the trim
				// drops a slice of its palette, one class per round.
				seeded := &sim.Topology{G: g, Line: line.Line, Labels: lin.Colors}
				seededOracle := materialized(g, lin.Colors)
				target := int64(line.MaxDegree()) + 1
				trimTarget := max(target, lin.Palette-40)
				reductions := []struct {
					name string
					run  func(*sim.Topology) (*reduce.Result, error)
				}{
					{"kw", func(tp *sim.Topology) (*reduce.Result, error) {
						return reduce.KuhnWattenhofer(ctx, ec.eng, tp, lin.Palette, target)
					}},
					{"trim", func(tp *sim.Topology) (*reduce.Result, error) {
						return reduce.TrimClasses(ctx, ec.eng, tp, lin.Palette, trimTarget)
					}},
				}
				for _, rc := range reductions {
					got, err := rc.run(seeded)
					if err != nil {
						t.Fatalf("%s: %v", rc.name, err)
					}
					want, err := rc.run(seededOracle)
					if err != nil {
						t.Fatalf("%s: %v", rc.name, err)
					}
					if d := sameRun(got.Colors, want.Colors, got.Palette, want.Palette, got.Stats, want.Stats); d != "" {
						t.Fatalf("%s: %s", rc.name, d)
					}
				}

				// The black box: EdgeColor on g against Delta1 on L(g).
				if g.M() == 0 {
					return
				}
				got, err := EdgeColor(ctx, g, nil, m0, Options{Exec: ec.eng})
				if err != nil {
					t.Fatal(err)
				}
				d1, err := Delta1(ctx, oracle, m0, Options{Exec: ec.eng})
				if err != nil {
					t.Fatal(err)
				}
				if d := sameRun(got.Colors, d1.Colors, got.Palette, EdgePalette(g.MaxDegree()), got.Stats, d1.Stats); d != "" {
					t.Fatalf("edge color: %s", d)
				}
			})
		}
	}
}
