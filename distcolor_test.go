package distcolor

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestFacadeEdgeColorStar(t *testing.T) {
	g, err := gen.NearRegular(200, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, AlgoEdgeStar, Params{"x": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Palette > int64(4*g.MaxDegree()) {
		t.Fatalf("palette %d exceeds 4Δ", res.Palette)
	}
	if res.Kind != KindEdge || res.Algorithm != "star-partition/x=1" {
		t.Fatalf("kind %q, algorithm label %q", res.Kind, res.Algorithm)
	}
	if res.Stats.Rounds <= 0 || res.Stats.Messages <= 0 {
		t.Fatal("missing stats")
	}
}

func TestFacadeEdgeColorGreedy(t *testing.T) {
	g := gen.GNP(60, 0.2, 2)
	res, err := Run(context.Background(), g, AlgoEdgeGreedy, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Palette != int64(2*g.MaxDegree()-1) {
		t.Fatalf("palette %d", res.Palette)
	}
}

func TestFacadeEdgeColorSparse(t *testing.T) {
	g, err := gen.ForestUnionHub(400, 2, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, AlgoEdgeSparse, Params{"arboricity": 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm == "" {
		t.Fatal("missing plan name")
	}
}

func TestFacadeEdgeColorSparseWith(t *testing.T) {
	g, err := gen.ForestUnionHub(300, 2, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, alg := range []string{AlgoEdgeSparse52, AlgoEdgeSparse53, AlgoEdgeSparse54x2, AlgoEdgeSparse54x3} {
		res, err := Run(ctx, g, alg, Params{"arboricity": 3}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := CheckEdgeColoring(g, res.Colors, res.Palette); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestFacadeVertexColor(t *testing.T) {
	g := gen.GNP(100, 0.1, 4)
	res, err := Run(context.Background(), g, AlgoVertexDelta1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckVertexColoring(g, res.Colors, int64(g.MaxDegree())+1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVertexColorCD(t *testing.T) {
	base := gen.GNP(30, 0.25, 5)
	lg, cov, err := LineCover(base)
	if err != nil {
		t.Fatal(err)
	}
	if lg.N() != base.M() {
		t.Fatal("line graph size wrong")
	}
	res, err := Run(context.Background(), lg, AlgoVertexCD, Params{"x": 1}, Options{Cover: cov})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckVertexColoring(lg, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	if res.Palette > int64(d*d*s) {
		t.Fatalf("palette %d exceeds D²S", res.Palette)
	}
	// A CD vertex coloring of the line graph is an edge coloring of base:
	// line-graph vertex e is base's edge e.
	if err := CheckEdgeColoring(base, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHypergraph(t *testing.T) {
	h, err := NewHypergraph(5, 3, [][]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	lg, cov, err := HypergraphLineCover(h)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Diversity() > 3 {
		t.Fatalf("diversity %d > rank", cov.Diversity())
	}
	res, err := Run(context.Background(), lg, AlgoVertexCD, Params{"x": 1}, Options{Cover: cov})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckVertexColoring(lg, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeIO(t *testing.T) {
	g := gen.GNP(20, 0.3, 8)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip mismatch")
	}
}

func TestFacadeParallelEngineAgrees(t *testing.T) {
	g, err := gen.NearRegular(120, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seqRes, err := Run(ctx, g, AlgoEdgeStar, Params{"x": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Run(ctx, g, AlgoEdgeStar, Params{"x": 1}, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for e := range seqRes.Colors {
		if seqRes.Colors[e] != parRes.Colors[e] {
			t.Fatal("engines disagree through the façade")
		}
	}
	if seqRes.Stats != parRes.Stats {
		t.Fatal("stats disagree through the façade")
	}
}

func TestFacadeHelpers(t *testing.T) {
	g := gen.Grid(10, 10)
	if a := ArboricityUpperBound(g); a < 1 || a > 3 {
		t.Fatalf("grid arboricity estimate %d", a)
	}
	plans := SparsePlans(1000, 2, 3)
	if len(plans) < 3 {
		t.Fatal("expected multiple sparse plans")
	}
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	gg, err := b.Build()
	if err != nil || gg.M() != 1 {
		t.Fatal("builder re-export broken")
	}
	if _, err := NewCliqueCover(gg, [][]int32{{0, 1}}); err != nil {
		t.Fatal(err)
	}
}
