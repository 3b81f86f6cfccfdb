// Command localsim runs any registered distcolor algorithm on a
// user-supplied graph and reports the verified result as JSON.
//
// Usage:
//
//	localsim -list                                  # discover algorithms + parameter schemas
//	localsim -algo edge/star -x 1 < graph.edges
//	localsim -algo edge/sparse -arboricity 3 -in mygraph.edges
//	localsim -algo edge/sparse/thm5.3 -param q=2.5 -in mygraph.edges
//	localsim -algo vertex/cd -line -in mygraph.edges
//	localsim -algo edge/greedy -in mygraph.edges -colors out.txt
//
// The input format is a whitespace edge list with an optional "n <count>"
// header; see ReadEdgeList. -algo takes any registered algorithm name
// (see -list); the short aliases star, greedy, sparse, delta1 and cdline
// from earlier releases keep working. -line runs a vertex algorithm on the
// line graph of the input (with its canonical diversity-2 clique cover),
// which edge-colors the input graph; cover-requiring algorithms
// (vertex/cd) need it when the input is a plain edge list.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	distcolor "repro"
)

type output struct {
	Algorithm string           `json:"algorithm"`
	N         int              `json:"n"`
	M         int              `json:"m"`
	MaxDegree int              `json:"maxDegree"`
	Palette   int64            `json:"palette"`
	Used      int              `json:"colorsUsed"`
	Rounds    int              `json:"rounds"`
	Messages  int64            `json:"messages"`
	Target    string           `json:"target"` // "edges" or "vertices"
	Params    distcolor.Params `json:"params,omitempty"`
}

// aliases maps the pre-registry CLI names onto registry names; cdline
// additionally implies -line.
var aliases = map[string]struct {
	name string
	line bool
}{
	"star":   {name: distcolor.AlgoEdgeStar},
	"greedy": {name: distcolor.AlgoEdgeGreedy},
	"sparse": {name: distcolor.AlgoEdgeSparse},
	"delta1": {name: distcolor.AlgoVertexDelta1},
	"cdline": {name: distcolor.AlgoVertexCD, line: true},
}

// paramFlags collects repeated -param name=value flags.
type paramFlags map[string]float64

func (p paramFlags) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %w", s, err)
	}
	p[k] = f
	return nil
}

func main() {
	params := paramFlags{}
	algo := flag.String("algo", "edge/star", "registered algorithm name (see -list) or legacy alias (star, greedy, sparse, delta1, cdline)")
	x := flag.Int("x", 0, "recursion depth (shorthand for -param x=…; 0 = algorithm default)")
	arb := flag.Int("arboricity", 0, "arboricity bound (shorthand for -param arboricity=…; 0 = estimate from degeneracy)")
	q := flag.Float64("q", 0, "Section 5 threshold multiplier (shorthand for -param q=…; 0 = default)")
	flag.Var(params, "param", "algorithm parameter as name=value, repeatable (schema: localsim -list)")
	line := flag.Bool("line", false, "run a vertex algorithm on the line graph of the input (edge-colors the input graph)")
	in := flag.String("in", "", "input edge list (default stdin)")
	colorsOut := flag.String("colors", "", "optional file to write the coloring (one color per line)")
	parallel := flag.Bool("parallel", false, "use the goroutine engine")
	list := flag.Bool("list", false, "list the registered algorithms with their parameter schemas and exit")
	flag.Parse()

	if *list {
		printRegistry(os.Stdout)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	req := distcolor.Request{Algorithm: *algo, Params: distcolor.Params(params), X: *x, Arboricity: *arb, Q: *q}
	if err := run(ctx, req, *in, *colorsOut, *parallel, *line); err != nil {
		fmt.Fprintf(os.Stderr, "localsim: %v\n", err)
		os.Exit(1)
	}
}

// printRegistry renders the algorithm registry as a discovery table.
func printRegistry(w io.Writer) {
	for _, a := range distcolor.DescribeAlgorithms() {
		fmt.Fprintf(w, "%-22s %-6s palette %s\n", a.Name, a.Kind, a.Palette)
		if a.Doc != "" {
			fmt.Fprintf(w, "    %s\n", a.Doc)
		}
		if a.NeedsCover {
			fmt.Fprintf(w, "    needs a clique cover (use -line to derive one from the line graph)\n")
		}
		for _, p := range a.Params {
			fmt.Fprintf(w, "    -param %s=<%s>  default %v, range [%v, %v]  %s\n",
				p.Name, p.Type, p.Default, p.Min, p.Max, p.Doc)
		}
	}
}

// run executes req, whose shorthand fields carry the -x, -arboricity and
// -q flags.
func run(ctx context.Context, req distcolor.Request, in, colorsOut string, parallel, line bool) error {
	if al, ok := aliases[req.Algorithm]; ok {
		line = line || al.line
		req.Algorithm = al.name
	}
	algo := req.Algorithm
	a, ok := distcolor.LookupAlgorithm(algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (try -list)", algo)
	}

	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, err := distcolor.ReadEdgeList(r)
	if err != nil {
		return err
	}

	opt := distcolor.Options{Parallel: parallel}
	out := output{N: g.N(), M: g.M(), MaxDegree: g.MaxDegree()}
	target := map[distcolor.Kind]string{distcolor.KindEdge: "edges", distcolor.KindVertex: "vertices"}[a.Kind]

	// -line lifts the workload onto the line graph: any vertex algorithm
	// then edge-colors the input, and the canonical diversity-2 clique
	// cover satisfies cover-requiring algorithms.
	runGraph := g
	if line {
		if a.Kind != distcolor.KindVertex {
			return fmt.Errorf("-line needs a vertex algorithm, %s colors %s", algo, a.Kind)
		}
		lg, cov, lcErr := distcolor.LineCover(g)
		if lcErr != nil {
			return lcErr
		}
		runGraph = lg
		opt.Cover = cov
		target = "edges (via line graph)"
	} else if a.NeedsCover {
		return fmt.Errorf("%s requires a clique cover: pass -line to derive one from the line graph", algo)
	}

	// The shorthand flags resolve as the wire codec's shorthand fields do:
	// merged only when the algorithm's schema declares the parameter,
	// ignored otherwise. Explicit -param entries stay strict.
	params, err := req.ResolvedParams()
	if err != nil {
		return err
	}
	col, err := distcolor.Run(ctx, runGraph, algo, params, opt)
	if err != nil {
		return err
	}
	out.Algorithm = col.Algorithm
	out.Palette = col.Palette
	out.Rounds = col.Stats.Rounds
	out.Messages = col.Stats.Messages
	out.Target = target
	out.Params = col.Params
	out.Used = countDistinct(col.Colors)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if colorsOut != "" {
		var sb strings.Builder
		for _, c := range col.Colors {
			sb.WriteString(strconv.FormatInt(c, 10))
			sb.WriteByte('\n')
		}
		return os.WriteFile(colorsOut, []byte(sb.String()), 0o644)
	}
	return nil
}

func countDistinct(colors []int64) int {
	seen := make(map[int64]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}
