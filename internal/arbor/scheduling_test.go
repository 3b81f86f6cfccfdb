package arbor

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// A merge stage's vertices coordinate through the shared edge-color array
// and through messages that point into the merge program's slabs; these
// tests prove the coordination is round-synchronized (no vertex reads a
// value another vertex wrote in the same round unless the protocol says
// so) by checking that the engine's intra-round vertex order and its
// sharding cannot change any outcome. TestMergeSchedulingIndependence
// runs 600 vertices, above two shards' worth (sim's step grain is 256),
// and the tightest peeling multiplier, which splits them into three parts
// and so two merge stages.

func TestMergeSchedulingIndependence(t *testing.T) {
	g, a := bounded(t, 600, 2, 240, 41)
	run := func(eng sim.Engine) *Result {
		res, err := ColorHPartition(context.Background(), g, a, Options{Exec: eng, Q: 2.05})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fwd := run(sim.Sequential)
	if fwd.Parts < 3 {
		t.Fatalf("%d parts: want at least two merge stages", fwd.Parts)
	}
	rev := run(sim.ReverseSequential)
	par := run(sim.Parallel)
	for e := range fwd.Colors {
		if fwd.Colors[e] != rev.Colors[e] || fwd.Colors[e] != par.Colors[e] {
			t.Fatalf("edge %d: engines disagree (%d / %d / %d)", e, fwd.Colors[e], rev.Colors[e], par.Colors[e])
		}
	}
	if fwd.Stats != rev.Stats || fwd.Stats != par.Stats {
		t.Fatalf("stats disagree: %+v / %+v / %+v", fwd.Stats, rev.Stats, par.Stats)
	}
}

func TestRecursiveSchedulingIndependence(t *testing.T) {
	g, a := bounded(t, 250, 2, 90, 43)
	fwd, err := ColorRecursive(context.Background(), g, a, 2, Options{Exec: sim.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := ColorRecursive(context.Background(), g, a, 2, Options{Exec: sim.ReverseSequential})
	if err != nil {
		t.Fatal(err)
	}
	for e := range fwd.Colors {
		if fwd.Colors[e] != rev.Colors[e] {
			t.Fatalf("edge %d differs under reverse scheduling", e)
		}
	}
}
