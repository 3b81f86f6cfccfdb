package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	distcolor "repro"
	"repro/internal/arbor"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/vc"
)

// inproc is a workload that runs one algorithm on one goroutine, in this
// process: each op ingests the input's wire form with GraphSpec.Build and
// colors it with distcolor.Run, which verifies the coloring itself.
type inproc struct {
	gen    func(seed int64) (*distcolor.Graph, error)
	algo   string
	params distcolor.Params
	// pinned is the input at pinSeed; family checks an input at any seed.
	pinned fingerprint
	family func(fingerprint) error
	// traced runs the package the registry dispatches to, with ex as every
	// simulator execution's engine; it must reproduce Run exactly.
	traced func(ctx context.Context, g *distcolor.Graph, ex sim.Exec) (*coloring, error)
}

// coloring is the part of an op's output that must repeat exactly.
type coloring struct {
	Colors  []int64
	Palette int64
	Stats   distcolor.Stats
	Parts   int
}

func (c *coloring) equal(o *coloring) bool {
	return c.Palette == o.Palette && c.Stats == o.Stats && slices.Equal(c.Colors, o.Colors)
}

var edgepipe = &inproc{
	gen:    func(seed int64) (*distcolor.Graph, error) { return gen.NearRegular(20000, 8, seed) },
	algo:   distcolor.AlgoEdgeStar,
	params: distcolor.Params{"x": 1},
	pinned: fingerprint{N: 20000, M: 79982, Delta: 8, Hash: "1326419953e54538"},
	family: func(f fingerprint) error {
		if f.N != 20000 || f.Delta != 8 || f.M < 79900 || f.M > 80000 {
			return fmt.Errorf("near-regular input %v is not 20000 vertices of degree ≈8", f)
		}
		return nil
	},
	traced: func(ctx context.Context, g *distcolor.Graph, ex sim.Exec) (*coloring, error) {
		t, err := star.ChooseT(g.MaxDegree(), 1)
		if err != nil {
			return nil, err
		}
		res, err := star.EdgeColor(ctx, g, t, 1, star.Options{Exec: ex, VC: vc.Options{Exec: ex}})
		if err != nil {
			return nil, err
		}
		return &coloring{Colors: res.Colors, Palette: res.Palette, Stats: res.Stats}, nil
	},
}

var sparsePA = &inproc{
	gen:    func(seed int64) (*distcolor.Graph, error) { return gen.PreferentialAttachment(50000, 2, seed) },
	algo:   distcolor.AlgoEdgeSparse,
	pinned: fingerprint{N: 50000, M: 99997, Delta: 668, Hash: "f605fa84cd28cb84"},
	family: func(f fingerprint) error {
		if f.N != 50000 || f.M != 99997 {
			return fmt.Errorf("preferential-attachment input %v is not 50000 vertices and 99997 edges", f)
		}
		return nil
	},
	traced: func(ctx context.Context, g *distcolor.Graph, ex sim.Exec) (*coloring, error) {
		a := distcolor.ArboricityUpperBound(g)
		res, _, err := arbor.ColorAdaptive(ctx, g, a, arbor.Options{Exec: ex, VC: vc.Options{Exec: ex}, Q: 3})
		if err != nil {
			return nil, err
		}
		return &coloring{Colors: res.Colors, Palette: res.Palette, Stats: res.Stats, Parts: res.Parts}, nil
	},
}

// inprocSetups is how many identical set-ups a run times; setup_s is their
// median.
const inprocSetups = 15

func (w *inproc) run(ctx context.Context, cfg runConfig) (*report, error) {
	ref, err := w.gen(pinSeed)
	if err != nil {
		return nil, err
	}
	if got := fingerprintOf(ref); got != w.pinned {
		return nil, fmt.Errorf("input generator drifted: seed %d gives %v, pinned %v", pinSeed, got, w.pinned)
	}
	ref = nil

	rep := newReport()
	var spec distcolor.GraphSpec
	var g *distcolor.Graph
	setups := make([]float64, inprocSetups)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		g0, err := w.gen(cfg.seed)
		if err != nil {
			return nil, err
		}
		spec = distcolor.Spec(g0)
		if g, err = spec.Build(); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	rep.setupS = median(setups)
	rep.input = fingerprintOf(g)
	if err := w.family(rep.input); err != nil {
		return nil, err
	}

	// The warm-up op is the reference every timed op must reproduce.
	runtime.GC()
	col, err := distcolor.Run(ctx, g, w.algo, w.params, distcolor.Options{})
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	want := &coloring{Colors: col.Colors, Palette: col.Palette, Stats: col.Stats}
	delta := float64(g.MaxDegree())
	rep.det = detMetrics{
		rounds:   float64(want.Stats.Rounds),
		messages: float64(want.Stats.Messages),
		palette:  float64(want.Palette) / delta,
		used:     float64(distinctColors(want.Colors)) / delta,
	}
	g, col = nil, nil

	m := int64(len(spec.Edges))
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	for i, loop := 0, newLoop(cfg); loop.more(rep, 2*minBeyond); i++ {
		traced := cfg.trace && i%2 == 1
		runtime.GC()
		var got *coloring
		var d time.Duration
		var h heapSample
		if traced {
			got, d, h, err = w.tracedOp(ctx, spec, rec)
		} else {
			h0 := readHeap()
			t0 := time.Now()
			var c *distcolor.Coloring
			var gg *distcolor.Graph
			if gg, err = spec.Build(); err == nil {
				c, err = distcolor.Run(ctx, gg, w.algo, w.params, distcolor.Options{})
			}
			d = time.Since(t0)
			h = readHeap().sub(h0)
			if err == nil {
				got = &coloring{Colors: c.Colors, Palette: c.Palette, Stats: c.Stats}
			}
		}
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("op %d: %v", i, err)
			continue
		case !got.equal(want):
			rep.fail("op %d (traced=%v): coloring or stats differ from the reference run", i, traced)
			continue
		}
		if traced {
			rep.traced = append(rep.traced, d.Seconds()*1e3)
			rep.layers.addOp(inprocLayers(rec.opSpans(rec.op-1), h, got))
			continue
		}
		rep.lat = append(rep.lat, d.Seconds()*1e3)
		rep.edges += m
		rep.heapEdges += m
		rep.heap = rep.heap.add(h)
	}
	rep.rec = rec
	return rep, nil
}

// tracedOp is one op with a span around each layer call: the ingest, the
// algorithm (whose simulator executions timedExec records as child spans),
// and the verification Run would perform.
func (w *inproc) tracedOp(ctx context.Context, spec distcolor.GraphSpec, rec *recorder) (out *coloring, d time.Duration, h heapSample, err error) {
	defer rec.finishOp()
	h0 := readHeap()
	t0 := time.Now()
	root := rec.begin("op")
	sp := rec.begin("graph.ingest")
	g, err := spec.Build()
	rec.end(sp)
	if err != nil {
		return nil, 0, h, err
	}
	sp = rec.begin("graph")
	out, err = w.traced(ctx, g, timedExec{base: sim.Sequential, rec: rec})
	rec.end(sp)
	if err != nil {
		return nil, 0, h, err
	}
	sp = rec.begin("verify")
	err = distcolor.CheckEdgeColoring(g, out.Colors, out.Palette)
	rec.end(sp)
	rec.end(root)
	return out, time.Since(t0), readHeap().sub(h0), err
}

// inprocLayers turns one traced op's spans and heap counters into
// per-layer values.
func inprocLayers(spans []span, h heapSample, out *coloring) map[string]float64 {
	v := map[string]float64{
		"arbor.parts":       float64(out.Parts),
		"runtime.gc_cycles": float64(h.gcCycles),
		"runtime.gc_cpu_ms": h.gcCPUSeconds * 1e3,
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "op":
			v["other_ms"] += selfTime(spans, i).Seconds() * 1e3
		case "graph.ingest":
			v["graph.ingest_ms"] += s.ms()
		case "graph":
			v["graph.self_ms"] += selfTime(spans, i).Seconds() * 1e3
			alloc := float64(s.AllocBytes)
			for _, c := range spans {
				if c.Parent == s.ID {
					alloc -= float64(c.AllocBytes)
				}
			}
			v["graph.alloc_mb"] += alloc / 1e6
		case "verify":
			v["verify.ms"] += s.ms()
		default: // a simulator execution, named by its layer
			v["sim.busy_ms"] += s.ms()
			v["sim.runs"]++
			v["sim.rounds_executed"] += float64(s.Rounds)
			v["sim.alloc_mb"] += float64(s.AllocBytes) / 1e6
			switch s.Name {
			case "linial":
				v["linial.busy_ms"] += s.ms()
				v["linial.runs"]++
			case "reduce":
				v["reduce.busy_ms"] += s.ms()
				v["reduce.rounds_executed"] += float64(s.Rounds)
			case "arbor.merge":
				v["arbor.merge_ms"] += s.ms()
				v["arbor.merge_stages"]++
			case "arbor.hpartition":
				v["arbor.hpartition_ms"] += s.ms()
			}
		}
	}
	return v
}
