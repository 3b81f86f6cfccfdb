package distcolor

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRegistryListsAllAlgorithms pins the registered family: every
// algorithm the wire codec historically accepted must be present, sorted.
func TestRegistryListsAllAlgorithms(t *testing.T) {
	want := []string{
		AlgoEdgeGreedy,
		AlgoEdgeSparse,
		AlgoEdgeSparse52, AlgoEdgeSparse53, AlgoEdgeSparse54x2, AlgoEdgeSparse54x3,
		AlgoEdgeStar,
		AlgoVertexCD, AlgoVertexDelta1,
	}
	if got := Algorithms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Algorithms() = %v, want %v", got, want)
	}
	for _, info := range DescribeAlgorithms() {
		if info.Kind != KindEdge && info.Kind != KindVertex {
			t.Errorf("%s: bad kind %q", info.Name, info.Kind)
		}
		if info.Params == nil {
			t.Errorf("%s: params must marshal as [], not null", info.Name)
		}
	}
}

func TestRegistrySchemas(t *testing.T) {
	star, ok := LookupAlgorithm(AlgoEdgeStar)
	if !ok {
		t.Fatal("edge/star not registered")
	}
	if len(star.Params) != 1 || star.Params[0].Name != "x" || star.Params[0].Default != 1 {
		t.Fatalf("edge/star schema = %+v, want single x defaulting to 1", star.Params)
	}
	sparse, _ := LookupAlgorithm(AlgoEdgeSparse)
	names := map[string]ParamSpec{}
	for _, p := range sparse.Params {
		names[p.Name] = p
	}
	if _, ok := names["arboricity"]; !ok {
		t.Fatal("edge/sparse schema lacks arboricity")
	}
	if q, ok := names["q"]; !ok || q.Default != 3 || q.ClampMin != 2.05 {
		t.Fatalf("edge/sparse q schema = %+v, want default 3 and clamp 2.05", names["q"])
	}
	cdAlgo, _ := LookupAlgorithm(AlgoVertexCD)
	if !cdAlgo.NeedsCover {
		t.Fatal("vertex/cd must declare NeedsCover")
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	g, _ := NewBuilder(2).Build()
	_, err := Run(context.Background(), g, "edge/does-not-exist", nil, Options{})
	var ue *UnknownAlgorithmError
	if !errors.As(err, &ue) || ue.Name != "edge/does-not-exist" {
		t.Fatalf("want *UnknownAlgorithmError, got %v", err)
	}
}

func TestRunRejectsUnknownParam(t *testing.T) {
	g := gen.ForestUnion(30, 2, 1)
	_, err := Run(context.Background(), g, AlgoEdgeGreedy, Params{"bogus": 1}, Options{})
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "bogus" {
		t.Fatalf("want *ParamError on bogus, got %v", err)
	}
}

// TestQContract pins the Section 5 threshold multiplier behavior at the
// Run boundary: zero selects the default 3, positive values below 2.05 are
// clamped up to 2.05 (and the clamp is visible in the resolved params),
// NaN and negative values are typed errors — not silent clamps.
func TestQContract(t *testing.T) {
	g := gen.ForestUnion(40, 2, 1)
	ctx := context.Background()

	col, err := Run(ctx, g, AlgoEdgeSparse52, Params{"arboricity": 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Params["q"] != 3 {
		t.Fatalf("default q = %v, want 3", col.Params["q"])
	}

	col, err = Run(ctx, g, AlgoEdgeSparse52, Params{"arboricity": 3, "q": 1.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Params["q"] != 2.05 {
		t.Fatalf("q=1.5 resolved to %v, want clamp to 2.05", col.Params["q"])
	}

	col, err = Run(ctx, g, AlgoEdgeSparse52, Params{"arboricity": 3, "q": 2.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Params["q"] != 2.5 {
		t.Fatalf("q=2.5 resolved to %v, want unchanged", col.Params["q"])
	}

	var pe *ParamError
	if _, err := Run(ctx, g, AlgoEdgeSparse52, Params{"q": math.NaN()}, Options{}); !errors.As(err, &pe) {
		t.Fatalf("NaN q: want *ParamError, got %v", err)
	}
	if _, err := Run(ctx, g, AlgoEdgeSparse52, Params{"q": -1}, Options{}); !errors.As(err, &pe) {
		t.Fatalf("negative q: want *ParamError, got %v", err)
	}
}

// TestRunResolvesArboricity checks the dynamic default: an absent
// arboricity is estimated and echoed back in the resolved params.
func TestRunResolvesArboricity(t *testing.T) {
	g := gen.ForestUnion(40, 2, 1)
	col, err := Run(context.Background(), g, AlgoEdgeSparse, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	arb, ok := col.Params["arboricity"]
	if !ok || arb < 1 {
		t.Fatalf("resolved arboricity = %v (present=%v), want ≥ 1", arb, ok)
	}
	if int(arb) != ArboricityUpperBound(g) {
		t.Fatalf("resolved arboricity %v, want the degeneracy estimate %d", arb, ArboricityUpperBound(g))
	}
}

func TestRunNeedsCover(t *testing.T) {
	g := gen.ForestUnion(20, 1, 1)
	_, err := Run(context.Background(), g, AlgoVertexCD, nil, Options{})
	if err == nil {
		t.Fatal("vertex/cd without a cover must fail")
	}
}

func TestRunStarApplicability(t *testing.T) {
	g := gen.ForestUnion(20, 1, 1) // tiny Δ
	_, err := Run(context.Background(), g, AlgoEdgeStar, Params{"x": 8}, Options{})
	if err == nil {
		t.Fatal("x=8 on a low-degree graph must fail the applicability check")
	}
}

// cancelAfter returns Options whose observer cancels ctx after the given
// number of observed rounds, plus a counter of rounds executed after that.
func cancelAfter(cancel context.CancelFunc, after int) (Options, *int) {
	rounds := 0
	late := new(int)
	return Options{Observer: func(RoundEvent) {
		rounds++
		if rounds == after {
			cancel()
		}
		if rounds > after {
			*late++
		}
	}}, late
}

// TestRunCancellationAbortsPromptly: canceling mid-run aborts star, sparse
// and CD executions at the next round boundary, surfacing
// context.Canceled through the error chain.
func TestRunCancellationAbortsPromptly(t *testing.T) {
	reg, err := gen.NearRegular(200, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	forest := gen.ForestUnion(300, 3, 1)
	lg, cover, err := LineCover(gen.ForestUnion(100, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		graph  *Graph
		algo   string
		params Params
		opt    Options
	}{
		{"star", reg, AlgoEdgeStar, Params{"x": 1}, Options{}},
		{"sparse", forest, AlgoEdgeSparse, Params{"arboricity": 4}, Options{}},
		{"cd", lg, AlgoVertexCD, Params{"x": 1}, Options{Cover: cover}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt, late := cancelAfter(cancel, 3)
			opt.Cover = tc.opt.Cover
			_, err := Run(ctx, tc.graph, tc.algo, tc.params, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled in the chain, got %v", err)
			}
			// The engine checks ctx before every round, so at most the
			// round already in flight can complete after cancellation.
			if *late > 1 {
				t.Fatalf("%d rounds executed after cancellation", *late)
			}
		})
	}
}

// TestRunDeadline: an already-expired deadline aborts before any round.
func TestRunDeadline(t *testing.T) {
	g, err := gen.NearRegular(100, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	ran := 0
	_, err = Run(ctx, g, AlgoEdgeGreedy, nil, Options{Observer: func(RoundEvent) { ran++ }})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d rounds ran under an expired deadline", ran)
	}
}

// TestRunRefusesOverflowingLineTable: a 200,000-vertex star is inside
// colord's default limits, but its line table would hold 199,999·199,998 ≈
// 4.0·10¹⁰ entries, beyond the table's int32 offsets. Both edge algorithms
// that read it fail the request with an error naming the size, promptly
// and without allocating the table; building it would end the process
// with the runtime's out-of-memory throw, which no recover catches.
func TestRunRefusesOverflowingLineTable(t *testing.T) {
	g := graph.Star(200000)
	for _, algo := range []string{AlgoEdgeGreedy, AlgoEdgeStar} {
		t.Run(algo, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := Run(context.Background(), g, algo, nil, Options{})
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "39999400002") {
				t.Fatalf("want the line table's size error, got %v", err)
			}
			if took > time.Second {
				t.Fatalf("refusal took %v", took)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
				t.Fatalf("refusal allocated %d B", d)
			}
		})
	}
}

// TestCodecToleratesIgnoredShorthand pins the codec's backward
// compatibility: legacy shorthand fields (x, arboricity, q) set on a
// request whose algorithm has no such parameter are ignored — pre-registry
// clients swept one template across algorithms — while the schema-keyed
// Params map stays strict, and negative shorthand values, or a non-finite
// q, are still rejected outright.
func TestCodecToleratesIgnoredShorthand(t *testing.T) {
	spec := GraphSpec{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}

	legacy := &Request{Algorithm: AlgoEdgeGreedy, Graph: spec, X: 2, Q: 2.5}
	if err := legacy.Validate(); err != nil {
		t.Fatalf("shorthand fields on an ignoring algorithm must validate, got %v", err)
	}
	resp, err := Execute(context.Background(), legacy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Execute(context.Background(), &Request{Algorithm: AlgoEdgeGreedy, Graph: spec}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Colors, plain.Colors) {
		t.Fatal("ignored shorthand changed the computed coloring")
	}

	strict := &Request{Algorithm: AlgoEdgeGreedy, Graph: spec, Params: Params{"x": 2}}
	var pe *ParamError
	if err := strict.Validate(); !errors.As(err, &pe) {
		t.Fatalf("schema-keyed params must stay strict, got %v", err)
	}
	if err := (&Request{Algorithm: AlgoEdgeGreedy, Graph: spec, X: -1}).Validate(); err == nil {
		t.Fatal("negative shorthand x must be rejected")
	}
	if err := (&Request{Algorithm: AlgoEdgeGreedy, Graph: spec, Arboricity: -1}).Validate(); err == nil {
		t.Fatal("negative shorthand arboricity must be rejected")
	}

	// A finite positive q is ignored by edge/star, which has no q; a
	// negative or non-finite one is rejected, as x and arboricity are.
	// edge/star needs Δ ≥ 4, so it colors K5.
	k5 := GraphSpec{N: 5}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5.Edges = append(k5.Edges, [2]int{u, v})
		}
	}
	star := &Request{Algorithm: AlgoEdgeStar, Graph: k5, Q: 2.5}
	starResp, err := Execute(context.Background(), star, Options{})
	if err != nil {
		t.Fatalf("finite shorthand q on edge/star must validate, got %v", err)
	}
	starPlain, err := Execute(context.Background(), &Request{Algorithm: AlgoEdgeStar, Graph: k5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(starResp.Colors, starPlain.Colors) {
		t.Fatal("ignored shorthand q changed the edge/star coloring")
	}
	for _, q := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (&Request{Algorithm: AlgoEdgeStar, Graph: k5, Q: q}).Validate(); err == nil {
			t.Fatalf("shorthand q=%v must be rejected", q)
		}
	}
}
