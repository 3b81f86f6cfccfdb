package bench

// End-to-end algorithm benchmarks — the stdlib-benchmark twins of the
// algo/* workloads in the simulator-core suite (simcore.go), so the same
// executions are measurable with benchstat:
//
//	make bench-algos                            # one smoke pass
//	make bench-algos BENCH_COUNT=10 > new.txt   # benchstat-grade samples
//	benchstat old.txt new.txt
//
// CI runs bench-algos on pull requests for both the base and head commits
// and uploads the comparison as a build artifact (.github/workflows/ci.yml).

import (
	"context"
	"testing"

	"repro/internal/arbor"
	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/sim"
	"repro/internal/star"
)

func BenchmarkAlgoLinial10k(b *testing.B) {
	g, err := gen.NearRegular(simCoreN, 8, simCoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linial.Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), int64(g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoStarD32(b *testing.B) {
	g, err := Workload(32, simCoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	t, err := star.ChooseT(g.MaxDegree(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := star.EdgeColor(context.Background(), g, t, 1, star.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoSparsePA20k(b *testing.B) {
	g, err := gen.PreferentialAttachment(simCoreSparseN, 2, simCoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	a := graph.ArboricityUpperBound(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arbor.ColorAdaptive(context.Background(), g, a, arbor.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoCDH3(b *testing.B) {
	h, err := gen.UniformHypergraph(simCoreCDVerts, 3, simCoreCDEdges, simCoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	lg, cov, err := cliques.HypergraphLineCover(h)
	if err != nil {
		b.Fatal(err)
	}
	t := cd.ChooseT(cov.MaxCliqueSize(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cd.Color(context.Background(), lg, cov, t, 1, cd.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoEdgePipe100k(b *testing.B) {
	g, err := gen.NearRegular(simCorePipeN, simCorePipeDeg, simCoreSeed)
	if err != nil {
		b.Fatal(err)
	}
	t, err := star.ChooseT(g.MaxDegree(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := star.EdgeColor(context.Background(), g, t, 1, star.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
