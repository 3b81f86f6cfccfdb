// Package bench is the experiment harness behind EXPERIMENTS.md: it builds
// the workloads, runs the paper's algorithms against their baselines, and
// renders the measured counterparts of the paper's Tables 1 and 2 and the
// Section 5 theorem suite, which cmd/colorbench prints. The root package's
// Go benchmarks (bench_test.go) share only Workload with it: they call the
// algorithm packages (star, cd, arbor, ...) directly, so a benchmark row
// and its table row start from the same input but are run by separate
// code.
//
// Every run is verified before it is reported: a row is only produced if
// the coloring is proper and within its declared palette.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/arbor"
	"repro/internal/baseline"
	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/star"
	"repro/internal/vc"
	"repro/internal/verify"
)

// Measurement is one verified algorithm execution.
type Measurement struct {
	Algorithm string
	Colors    int64 // palette bound actually guaranteed
	Used      int   // distinct colors actually used
	Rounds    int
	Messages  int64
}

// Table1Row compares the paper's (2^{x+1}Δ)-edge-coloring against the
// emulated previous-best ((2^{x+1}+ε)Δ) and the classical (2Δ−1) baseline
// on one near-regular graph.
type Table1Row struct {
	N, Delta, X int
	Ours        Measurement // star partition, Theorem 4.1
	Previous    Measurement // BE11 emulation ([7]+[17] profile)
	TwoDelta    Measurement // classical 2Δ−1
	Greedy      Measurement // sequential greedy reference (0 rounds)
}

// RunTable1Row builds the workload and produces one verified row.
func RunTable1Row(ctx context.Context, n, delta, x int, seed int64) (*Table1Row, error) {
	g, err := gen.NearRegular(n, delta, seed)
	if err != nil {
		return nil, err
	}
	row := &Table1Row{N: n, Delta: g.MaxDegree(), X: x}

	t, err := star.ChooseT(g.MaxDegree(), x)
	if err != nil {
		return nil, fmt.Errorf("bench: table1 Δ=%d x=%d: %w", delta, x, err)
	}
	ours, err := star.EdgeColor(ctx, g, t, x, star.Options{})
	if err != nil {
		return nil, err
	}
	if err := verify.EdgeColoring(g, ours.Colors, ours.Palette); err != nil {
		return nil, fmt.Errorf("bench: ours improper: %w", err)
	}
	row.Ours = Measurement{
		Algorithm: fmt.Sprintf("star/x=%d", x),
		Colors:    ours.Palette, Used: verify.PaletteUsed(ours.Colors),
		Rounds: ours.Stats.Rounds, Messages: ours.Stats.Messages,
	}

	prev, err := baseline.BE11EdgeColor(ctx, g, x, star.Options{})
	if err != nil {
		return nil, err
	}
	if err := verify.EdgeColoring(g, prev.Colors, prev.Declared); err != nil {
		return nil, fmt.Errorf("bench: baseline improper: %w", err)
	}
	row.Previous = Measurement{
		Algorithm: fmt.Sprintf("BE11/x=%d", x),
		Colors:    prev.Declared, Used: verify.PaletteUsed(prev.Colors),
		Rounds: prev.Stats.Rounds, Messages: prev.Stats.Messages,
	}

	td, err := baseline.TwoDeltaMinusOne(ctx, g, vc.Options{})
	if err != nil {
		return nil, err
	}
	if err := verify.EdgeColoring(g, td.Colors, td.Palette); err != nil {
		return nil, fmt.Errorf("bench: 2Δ−1 improper: %w", err)
	}
	row.TwoDelta = Measurement{
		Algorithm: "2Δ−1",
		Colors:    td.Palette, Used: verify.PaletteUsed(td.Colors),
		Rounds: td.Stats.Rounds, Messages: td.Stats.Messages,
	}

	gr := baseline.GreedyEdge(g)
	row.Greedy = Measurement{Algorithm: "greedy(seq)", Colors: int64(2*g.MaxDegree() - 1), Used: verify.PaletteUsed(gr)}
	return row, nil
}

// Table2Row compares CD-Coloring against the emulated previous best on one
// bounded-diversity instance (the line graph of a 3-uniform hypergraph).
type Table2Row struct {
	N, D, S, X int
	Ours       Measurement
	Previous   Measurement
	Greedy     Measurement
}

// RunTable2Row builds a diversity-D instance with clique size ≈ s and
// produces one verified row.
func RunTable2Row(ctx context.Context, nv, rank, ne, x int, seed int64) (*Table2Row, error) {
	h, err := gen.UniformHypergraph(nv, rank, ne, seed)
	if err != nil {
		return nil, err
	}
	g, cov, err := cliques.HypergraphLineCover(h)
	if err != nil {
		return nil, err
	}
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	row := &Table2Row{N: g.N(), D: d, S: s, X: x}

	ours, err := cd.Color(ctx, g, cov, cd.ChooseT(s, x), x, cd.Options{})
	if err != nil {
		return nil, err
	}
	if err := verify.VertexColoring(g, ours.Colors, ours.Palette); err != nil {
		return nil, fmt.Errorf("bench: cd improper: %w", err)
	}
	row.Ours = Measurement{
		Algorithm: fmt.Sprintf("cd/x=%d", x),
		Colors:    ours.Palette, Used: verify.PaletteUsed(ours.Colors),
		Rounds: ours.Stats.Rounds, Messages: ours.Stats.Messages,
	}

	prev, err := baseline.BE11VertexColor(ctx, g, cov, x, cd.Options{})
	if err != nil {
		return nil, err
	}
	if err := verify.VertexColoring(g, prev.Colors, prev.Declared); err != nil {
		return nil, fmt.Errorf("bench: cd baseline improper: %w", err)
	}
	row.Previous = Measurement{
		Algorithm: fmt.Sprintf("BE11v/x=%d", x),
		Colors:    prev.Declared, Used: verify.PaletteUsed(prev.Colors),
		Rounds: prev.Stats.Rounds, Messages: prev.Stats.Messages,
	}

	gr := baseline.GreedyVertex(g)
	row.Greedy = Measurement{Algorithm: "greedy(seq)", Colors: int64(g.MaxDegree() + 1), Used: verify.PaletteUsed(gr)}
	return row, nil
}

// FitSlope returns the least-squares slope of log(y) against log(x) — the
// empirical exponent of a power-law relationship. Used for the shape checks
// of the round columns (who wins and by what polynomial factor).
func FitSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / denom
}

// RenderTable writes an aligned text table.
func RenderTable(w io.Writer, title string, header []string, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title))); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(header, "\t")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(tw, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// SparseRow compares the Section 5 algorithms against the 2Δ−1 baseline on
// an arboricity-bounded workload.
type SparseRow struct {
	N, Delta, Arb int
	Rows          []Measurement
}

// RunSparseRow measures Theorems 5.2/5.3/5.4(x=2) and the adaptive choice.
func RunSparseRow(ctx context.Context, n, a, hub int, seed int64) (*SparseRow, error) {
	g, err := gen.ForestUnionHub(n, a, hub, seed)
	if err != nil {
		return nil, err
	}
	bound := a + 1
	row := &SparseRow{N: g.N(), Delta: g.MaxDegree(), Arb: bound}
	type runner struct {
		name string
		run  func() (*arbor.Result, error)
	}
	runners := []runner{
		{"thm5.2", func() (*arbor.Result, error) { return arbor.ColorHPartition(ctx, g, bound, arbor.Options{}) }},
		{"thm5.3", func() (*arbor.Result, error) { return arbor.ColorSqrt(ctx, g, bound, arbor.Options{}) }},
		{"thm5.4/x=2", func() (*arbor.Result, error) { return arbor.ColorRecursive(ctx, g, bound, 2, arbor.Options{}) }},
		{"adaptive", func() (*arbor.Result, error) {
			r, _, err := arbor.ColorAdaptive(ctx, g, bound, arbor.Options{})
			return r, err
		}},
		{"2Δ−1/BE08", func() (*arbor.Result, error) { return baseline.BE08EdgeColor(ctx, g, bound, vc.Options{}) }},
	}
	if g.MaxDegree() <= 300 {
		// The classical line-graph (2Δ−1) baseline is Θ(Δ log Δ) rounds on
		// a Θ(m·Δ)-edge line graph: include it only at sizes where it
		// finishes in reasonable wall-clock time; BE08 provides the same
		// palette at every scale.
		runners = append(runners, runner{"2Δ−1/line", func() (*arbor.Result, error) {
			r, err := baseline.TwoDeltaMinusOne(ctx, g, vc.Options{})
			if err != nil {
				return nil, err
			}
			return &arbor.Result{Colors: r.Colors, Palette: r.Palette, Stats: r.Stats}, nil
		}})
	}
	for _, r := range runners {
		res, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", r.name, err)
		}
		if err := verify.EdgeColoring(g, res.Colors, res.Palette); err != nil {
			return nil, fmt.Errorf("bench: %s improper: %w", r.name, err)
		}
		row.Rows = append(row.Rows, Measurement{
			Algorithm: r.name,
			Colors:    res.Palette, Used: verify.PaletteUsed(res.Colors),
			Rounds: res.Stats.Rounds, Messages: res.Stats.Messages,
		})
	}
	return row, nil
}

// Workload returns the standard Table 1 graph for a given Δ (n = 8Δ keeps
// density realistic while letting Δ drive the asymptotics).
func Workload(delta int, seed int64) (*graph.Graph, error) {
	return gen.NearRegular(8*delta, delta, seed)
}
