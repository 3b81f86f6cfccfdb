package distcolor

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arbor"
	"repro/internal/baseline"
	"repro/internal/cd"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/vc"
)

// fingerprintPath holds one line per case: its name, palette, rounds and a
// SHA-256 over its colors, palette and every Stats field. Regenerate with
// `go test -run TestAlgorithmFingerprints -update .`, and only when an
// output change is intended.
var fingerprintPath = filepath.Join("testdata", "fingerprints.txt")

// fingerprint hashes one case's output. extra carries outputs beyond a
// coloring (a decomposition's clique bound).
func fingerprint(colors []int64, palette int64, st sim.Stats, extra ...int64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(colors)))
	for _, c := range colors {
		put(c)
	}
	put(palette)
	for _, v := range []int64{int64(st.Rounds), st.Messages, st.Bits, st.MaxMessageBits, st.CongestViolations} {
		put(v)
	}
	for _, v := range extra {
		put(v)
	}
	return fmt.Sprintf("palette=%d rounds=%d %x", palette, st.Rounds, h.Sum(nil)[:16])
}

// TestAlgorithmFingerprints pins the exact output of every registered
// algorithm and of the recursions the registry does not reach (Theorem 5.4
// at x=4, the baselines, the clique decomposition) on seeded inputs, on
// both engines. A refactor of the
// algorithm layer must leave every line unchanged.
func TestAlgorithmFingerprints(t *testing.T) {
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	nr, err := gen.NearRegular(160, 18, 1)
	must(err)
	gnp := gen.GNP(120, 0.16, 2)
	hub, err := gen.ForestUnionHub(240, 2, 60, 3)
	must(err)
	pa, err := gen.PreferentialAttachment(300, 3, 4)
	must(err)
	lineL, lineCov, err := LineCover(gen.GNP(40, 0.2, 5))
	must(err)
	hyper, err := gen.UniformHypergraph(30, 3, 60, 6)
	must(err)
	hyperL, hyperCov, err := HypergraphLineCover(hyper)
	must(err)

	type input struct {
		name  string
		g     *Graph
		cover *CliqueCover
	}
	dense := []input{{"nr160", nr, nil}, {"gnp120", gnp, nil}}
	sparse := []input{{"hub240", hub, nil}, {"pa300", pa, nil}}
	lineGraphs := []input{{"line-gnp40", lineL, lineCov}, {"line-hyper30", hyperL, hyperCov}}

	var out []string
	add := func(name, fp string) { out = append(out, name+" "+fp) }
	run := func(name string, in input, algo string, p Params, par bool) {
		res, err := Run(ctx, in.g, algo, p, Options{Parallel: par, Cover: in.cover})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, fingerprint(res.Colors, res.Palette, res.Stats))
	}

	for _, par := range []bool{false, true} {
		engName, eng := "seq", sim.Sequential
		if par {
			engName, eng = "par", sim.Parallel
		}
		caseName := func(parts ...any) string {
			return fmt.Sprint(parts...) + "/" + engName
		}
		for _, in := range dense {
			for _, x := range []int{1, 2} {
				run(caseName(AlgoEdgeStar, "/x=", x, "/", in.name), in, AlgoEdgeStar, Params{"x": float64(x)}, par)
			}
			run(caseName(AlgoEdgeGreedy, "/", in.name), in, AlgoEdgeGreedy, nil, par)
			run(caseName(AlgoVertexDelta1, "/", in.name), in, AlgoVertexDelta1, nil, par)
		}
		for _, in := range append(sparse, dense...) {
			for _, algo := range []string{AlgoEdgeSparse, AlgoEdgeSparse52, AlgoEdgeSparse53, AlgoEdgeSparse54x2, AlgoEdgeSparse54x3} {
				run(caseName(algo, "/", in.name), in, algo, nil, par)
			}
		}
		for _, in := range lineGraphs {
			for x := 1; x <= 3; x++ {
				run(caseName(AlgoVertexCD, "/x=", x, "/", in.name), in, AlgoVertexCD, Params{"x": float64(x)}, par)
			}
			// x=0 is below the registry's schema; call the recursion directly.
			res, err := cd.Color(ctx, in.g, in.cover, cd.ChooseT(in.cover.MaxCliqueSize(), 0), 0, cd.Options{Exec: eng})
			must(err)
			add(caseName(AlgoVertexCD, "/x=0/", in.name), fingerprint(res.Colors, res.Palette, res.Stats))
		}

		for _, in := range sparse {
			res, err := arbor.ColorRecursive(ctx, in.g, ArboricityUpperBound(in.g), 4, arbor.Options{Exec: eng, Q: 2.5})
			must(err)
			add(caseName("arbor.ColorRecursive/x=4/q=2.5/", in.name), fingerprint(res.Colors, res.Palette, res.Stats, int64(res.Parts)))
			be08, err := baseline.BE08EdgeColor(ctx, in.g, ArboricityUpperBound(in.g), vc.Options{Exec: eng})
			must(err)
			add(caseName("baseline.BE08EdgeColor/", in.name), fingerprint(be08.Colors, be08.Palette, be08.Stats, int64(be08.Parts)))
		}
		for _, in := range dense {
			for _, x := range []int{1, 2} {
				res, err := baseline.BE11EdgeColor(ctx, in.g, x, star.Options{Exec: eng})
				must(err)
				add(caseName("baseline.BE11EdgeColor/x=", x, "/", in.name), fingerprint(res.Colors, res.Palette, res.Stats, res.Declared))
			}
		}
		for _, in := range lineGraphs {
			for x := 1; x <= 3; x++ {
				res, err := baseline.BE11VertexColor(ctx, in.g, in.cover, x, cd.Options{Exec: eng})
				must(err)
				add(caseName("baseline.BE11VertexColor/x=", x, "/", in.name), fingerprint(res.Colors, res.Palette, res.Stats, res.Declared))
			}
			for _, tt := range []int{2, 3} {
				for x := 1; x <= 3; x++ {
					dec, err := cd.Decompose(ctx, in.g, in.cover, tt, x, cd.Options{Exec: eng})
					must(err)
					add(caseName("cd.Decompose/t=", tt, "/x=", x, "/", in.name), fingerprint(dec.Class, dec.Parts, dec.Stats, int64(dec.CliqueBound)))
				}
			}
		}
	}

	got := strings.Join(out, "\n") + "\n"
	if *updateGolden {
		must(os.WriteFile(fingerprintPath, []byte(got), 0o644))
		return
	}
	want, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("missing %s (run `go test -run TestAlgorithmFingerprints -update .`): %v", fingerprintPath, err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(out) {
		t.Errorf("%d fingerprints, %s has %d", len(out), fingerprintPath, len(wantLines))
	}
	for i := 0; i < min(len(wantLines), len(out)); i++ {
		if wantLines[i] != out[i] {
			t.Errorf("output drifted:\n got  %s\n want %s", out[i], wantLines[i])
		}
	}
}
