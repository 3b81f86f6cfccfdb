package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	distcolor "repro"
	"repro/internal/arbor"
	"repro/internal/gen"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/sim"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return out
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		honest bool
	}{
		{20, 50, 10, true},   // 10 samples above the median
		{19, 50, 10, false},  // 9 above
		{20, 90, 18, false},  // 2 above
		{100, 90, 90, true},  // 10 above
		{100, 99, 99, false}, // 1 above
		{1, 50, 1, false},
		{5, 100, 5, false},
	} {
		in := seq(c.n)
		got, honest := percentile(in, c.p)
		if got != c.want || honest != c.honest {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, honest, c.want, c.honest)
		}
		if !slices.Equal(in, seq(c.n)) {
			t.Errorf("percentile(1..%d) reordered its input", c.n)
		}
	}
	if v, ok := percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("percentile(nil) = %v, %v; want NaN, false", v, ok)
	}
}

func TestRelabelIsIsomorphicWithNewBytes(t *testing.T) {
	g, err := gen.PreferentialAttachment(servedN, servedAttach, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := distcolor.Spec(g)
	baseBytes, err := distcolor.CodecBinary.Encode(&base)
	if err != nil {
		t.Fatal(err)
	}
	want := distcolor.CanonicalHash(g)
	seen := [][]byte{baseBytes}
	for i := 0; i < 3; i++ {
		spec := relabel(base, rand.New(rand.NewSource(int64(i))))
		rg, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := distcolor.CanonicalHash(rg); got != want {
			t.Errorf("relabeling %d: canonical hash %s, base %s", i, got, want)
		}
		data, err := distcolor.CodecBinary.Encode(&spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range seen {
			if bytes.Equal(s, data) {
				t.Errorf("relabeling %d encodes to the same bytes as an earlier graph", i)
			}
		}
		seen = append(seen, data)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/linial.Reduce":                "linial",
		"repro/internal/reduce.TrimClasses":           "reduce",
		"repro/internal/reduce.KuhnWattenhofer.func2": "reduce",
		"repro/internal/arbor.Merge":                  "arbor.merge",
		"repro/internal/arbor.HPartition":             "arbor.hpartition",
		"repro/internal/arbor.HPartition.func1":       "arbor.hpartition",
		"repro/internal/arbor.MergeAll":               "arbor",
		"repro/internal/arbor.(*merger).Step":         "arbor",
		"repro/internal/vc.EdgeColor":                 "vc",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestTimedExecNamesCallers runs each layer that starts simulator
// executions through timedExec and checks the span it records.
func TestTimedExecNamesCallers(t *testing.T) {
	ctx := context.Background()
	g, err := gen.PreferentialAttachment(300, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.NewTopology(g)
	for _, c := range []struct {
		want string
		run  func(ex sim.Exec) error
	}{
		{"linial", func(ex sim.Exec) error {
			_, err := linial.Reduce(ctx, ex, topo, int64(g.N()))
			return err
		}},
		{"reduce", func(ex sim.Exec) error {
			ids := make([]int64, g.N())
			for v := range ids {
				ids[v] = int64(v)
			}
			_, err := reduce.TrimClasses(ctx, ex, &sim.Topology{G: g, Labels: ids}, int64(g.N()), int64(g.MaxDegree()+1))
			return err
		}},
		{"arbor.hpartition", func(ex sim.Exec) error {
			_, err := arbor.HPartition(ctx, ex, g, 6)
			return err
		}},
	} {
		rec := newRecorder()
		if err := c.run(timedExec{base: sim.Sequential, rec: rec}); err != nil {
			t.Fatalf("%s: %v", c.want, err)
		}
		if len(rec.spans) == 0 {
			t.Fatalf("%s: no execution recorded", c.want)
		}
		for _, s := range rec.spans {
			if s.Name != c.want || s.Rounds == 0 {
				t.Errorf("%s: recorded span %q with %d rounds", c.want, s.Name, s.Rounds)
			}
		}
	}
}

// TestTracedOpMatchesRun checks that a traced op of each in-process
// workload reproduces distcolor.Run exactly, and that its layers claim all
// but a sliver of the op.
func TestTracedOpMatchesRun(t *testing.T) {
	ctx := context.Background()
	for name, w := range map[string]*inproc{"edgepipe": edgepipe, "sparse-pa": sparsePA} {
		var g *distcolor.Graph
		var err error
		if w == edgepipe {
			g, err = gen.NearRegular(2000, 8, 5)
		} else {
			g, err = gen.PreferentialAttachment(5000, 2, 5)
		}
		if err != nil {
			t.Fatal(err)
		}
		col, err := distcolor.Run(ctx, g, w.algo, w.params, distcolor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := &coloring{Colors: col.Colors, Palette: col.Palette, Stats: col.Stats}
		rec := newRecorder()
		got, d, h, err := w.tracedOp(ctx, distcolor.Spec(g), rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.equal(want) {
			t.Errorf("%s: traced op differs from Run", name)
		}
		v := inprocLayers(rec.opSpans(0), h, got)
		claimed := v["graph.ingest_ms"] + v["graph.self_ms"] + v["sim.busy_ms"] + v["verify.ms"]
		if op := d.Seconds() * 1e3; v["other_ms"] > maxOtherShare*op || claimed > op {
			t.Errorf("%s: op %.3f ms, layers claim %.3f ms, other %.3f ms", name, op, claimed, v["other_ms"])
		}
		if v["sim.runs"] == 0 || v["linial.runs"] == 0 {
			t.Errorf("%s: no simulator executions attributed: %v", name, v)
		}
		if (v["arbor.merge_stages"] > 0) != (w == sparsePA) {
			t.Errorf("%s: arbor.merge_stages = %v", name, v["arbor.merge_stages"])
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 1, StartNS: 15, EndNS: 20},
		{ID: 3, Parent: 0, StartNS: 25, EndNS: 60},  // overlaps span 1
		{ID: 4, Parent: -1, StartNS: 0, EndNS: 100}, // another root
	}
	if got := selfTime(spans, 0); got != 50 {
		t.Errorf("self time of root = %d, want 50", got)
	}
	if got := selfTime(spans, 1); got != 15 {
		t.Errorf("self time of span 1 = %d, want 15", got)
	}
}

func TestPinnedInputs(t *testing.T) {
	for _, w := range []*inproc{edgepipe, sparsePA} {
		g, err := w.gen(pinSeed)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintOf(g); got != w.pinned {
			t.Errorf("%s at seed %d: %v, pinned %v", w.algo, pinSeed, got, w.pinned)
		}
	}
	g, err := gen.PreferentialAttachment(servedN, servedAttach, pinSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintOf(g); got != servedPinned {
		t.Errorf("served input at seed %d: %v, pinned %v", pinSeed, got, servedPinned)
	}
}
