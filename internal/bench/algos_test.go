package bench

// End-to-end algorithm benchmarks — the stdlib-benchmark twins of the
// algo/* workloads in the simulator-core suite (simcore.go's algoRows),
// so the same executions are measurable with benchstat:
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
)

func BenchmarkAlgoLinial10k(b *testing.B)    { benchAlgo(b, "algo/linial/sequential-10k") }
func BenchmarkAlgoStarD32(b *testing.B)      { benchAlgo(b, "algo/star-x1/sequential-d32") }
func BenchmarkAlgoSparsePA20k(b *testing.B)  { benchAlgo(b, "algo/sparse/sequential-pa20k") }
func BenchmarkAlgoCDH3(b *testing.B)         { benchAlgo(b, "algo/cd-x1/sequential-h3") }
func BenchmarkAlgoEdgePipe100k(b *testing.B) { benchAlgo(b, "algo/edgepipe-x1/sequential-100k") }

// benchAlgo times the bare run of the suite's algorithm row name; its
// input is prepared before the timer starts.
func benchAlgo(b *testing.B, name string) {
	for _, row := range algoRows {
		if row.name != name {
			continue
		}
		run, err := row.prepare(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := run(); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no algorithm row %q", name)
}
