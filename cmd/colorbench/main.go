// Command colorbench regenerates the measured counterparts of the paper's
// evaluation artifacts: Table 1 (edge coloring of general graphs), Table 2
// (vertex coloring of bounded-diversity graphs), and the Section 5 theorem
// suite (Δ+o(Δ) edge coloring of bounded-arboricity graphs).
//
// Usage:
//
//	colorbench -table 1            # Table 1: ours vs previous best vs 2Δ−1
//	colorbench -table 2            # Table 2: CD-coloring vs previous best
//	colorbench -table 5            # Section 5: Thm 5.2/5.3/5.4 vs 2Δ−1
//	colorbench -table all -quick   # everything, smaller sweeps
//	colorbench -server http://localhost:8080   # drive a live colord instead
//
// The -json mode runs the simulator-core perf suite instead of the paper
// tables and emits machine-readable per-workload metrics (ns/op,
// allocs/op, allocs/round, rounds, messages, colors):
//
//	colorbench -json                             # write BENCH_simcore.json
//	colorbench -json -out -                      # write the report to stdout
//	colorbench -json -check BENCH_simcore.json   # fail on regression vs baseline
//
// `make bench-baseline` and `make bench-check` wrap the last two; CI runs
// the check on every push.
//
// With -server the harness doubles as a service load generator: the same
// synthetic families are generated server-side (/v1/generate), every sweep
// runs twice so the second pass must come from the result cache, and the
// server's cache-hit counters are reported at the end.
//
// Every reported row is verified (proper coloring within the declared
// palette) before printing; the program exits non-zero otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"repro/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, 5, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	server := flag.String("server", "", "base URL of a running colord instance; when set, colorbench becomes a load generator driving the service instead of running in-process")
	overload := flag.Int("overload", 0, "with -server: instead of the sweeps, flood the instance with this many tiny submissions (retries off) and report the accepted/shed split, shed latency, and readiness before/after")
	jsonMode := flag.Bool("json", false, "run the simulator-core perf suite and emit a machine-readable report instead of the paper tables")
	out := flag.String("out", "BENCH_simcore.json", "with -json: where to write the report (\"-\" for stdout)")
	check := flag.String("check", "", "with -json: compare the run against this baseline report instead of writing one; exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.15, "with -json -check: allowed fractional regression of ns/op, allocs/op and bytes/op")
	flag.Parse()

	// Ctrl-C cancels the context, which aborts in-flight simulations at
	// their next round boundary instead of killing the process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *jsonMode {
		if err := runSimCoreJSON(ctx, *out, *check, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "colorbench: json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *server != "" {
		if *overload > 0 {
			if err := runOverload(ctx, *server, *overload, 32); err != nil {
				fmt.Fprintf(os.Stderr, "colorbench: overload: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := runRemote(ctx, *server, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "colorbench: remote: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func() error) {
		switch *table {
		case name, "all":
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "colorbench: table %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	run("1", func() error { return table1(ctx, *seed, *quick) })
	run("2", func() error { return table2(ctx, *seed, *quick) })
	run("5", func() error { return table5(ctx, *seed, *quick) })
}

func table1(ctx context.Context, seed int64, quick bool) error {
	deltas := []int{16, 32, 64}
	xs := []int{1, 2, 3}
	if quick {
		deltas = []int{16, 32}
		xs = []int{1, 2}
	}
	var rows [][]string
	for _, x := range xs {
		for _, d := range deltas {
			// Both parameter profiles must be non-degenerate: ours needs
			// Δ ≥ 2^{x+1}, the [7] emulation needs Δ ≥ 2^{x+2}.
			if d < 1<<(x+2) {
				continue
			}
			row, err := bench.RunTable1Row(ctx, 8*d, d, x, seed)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				strconv.Itoa(x), strconv.Itoa(row.Delta), strconv.Itoa(row.N),
				fmt.Sprintf("%d", row.Ours.Colors), strconv.Itoa(row.Ours.Rounds),
				fmt.Sprintf("%d", row.Previous.Colors), strconv.Itoa(row.Previous.Rounds),
				fmt.Sprintf("%d", row.TwoDelta.Colors), strconv.Itoa(row.TwoDelta.Rounds),
				strconv.Itoa(row.Greedy.Used),
			})
		}
	}
	return bench.RenderTable(os.Stdout,
		"Table 1 (measured): edge coloring of general graphs — colors are palette bounds, rounds are executed LOCAL rounds",
		[]string{"x", "Δ", "n", "ours[2^{x+1}Δ]", "rounds", "prev[(2^{x+1}+ε)Δ]", "rounds", "2Δ−1", "rounds", "greedy used"},
		rows)
}

func table2(ctx context.Context, seed int64, quick bool) error {
	// S is driven by the hyperedge count: more hyperedges per vertex →
	// larger cliques in the line graph. S must be large enough that the two
	// parameter profiles t = S^{1/(x+1)} vs S^{1/(x+2)} actually differ at
	// every x in the sweep.
	type cfg struct{ nv, ne int }
	cfgs := []cfg{{40, 200}, {40, 400}, {40, 800}}
	xs := []int{1, 2, 3}
	if quick {
		cfgs = []cfg{{40, 100}, {40, 200}}
		xs = []int{1, 2}
	}
	var rows [][]string
	for _, x := range xs {
		for _, c := range cfgs {
			row, err := bench.RunTable2Row(ctx, c.nv, 3, c.ne, x, seed)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				strconv.Itoa(x), strconv.Itoa(row.D), strconv.Itoa(row.S), strconv.Itoa(row.N),
				fmt.Sprintf("%d", row.Ours.Colors), strconv.Itoa(row.Ours.Rounds),
				fmt.Sprintf("%d", row.Previous.Colors), strconv.Itoa(row.Previous.Rounds),
				strconv.Itoa(row.Greedy.Used),
			})
		}
	}
	return bench.RenderTable(os.Stdout,
		"Table 2 (measured): vertex coloring of bounded-diversity graphs (line graphs of 3-uniform hypergraphs, D ≤ 3)",
		[]string{"x", "D", "S", "n", "ours[D^{x+1}S]", "rounds", "prev[(D^{x+1}+ε)S]", "rounds", "greedy used"},
		rows)
}

func table5(ctx context.Context, seed int64, quick bool) error {
	type cfg struct{ n, a, hub int }
	cfgs := []cfg{{600, 2, 200}, {1200, 2, 500}, {2400, 2, 1200}}
	if quick {
		cfgs = []cfg{{400, 2, 150}}
	}
	var rows [][]string
	for _, c := range cfgs {
		row, err := bench.RunSparseRow(ctx, c.n, c.a, c.hub, seed)
		if err != nil {
			return err
		}
		for _, m := range row.Rows {
			rows = append(rows, []string{
				strconv.Itoa(row.N), strconv.Itoa(row.Delta), strconv.Itoa(row.Arb),
				m.Algorithm, fmt.Sprintf("%d", m.Colors), strconv.Itoa(m.Used),
				strconv.Itoa(m.Rounds), fmt.Sprintf("%d", m.Messages),
			})
		}
	}
	return bench.RenderTable(os.Stdout,
		"Section 5 (measured): Δ+o(Δ) edge coloring of bounded-arboricity graphs (union of a forests + hub)",
		[]string{"n", "Δ", "a≤", "algorithm", "palette", "used", "rounds", "messages"},
		rows)
}
