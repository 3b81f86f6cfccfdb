package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	distcolor "repro"
	"repro/internal/gen"
	"repro/internal/service"
)

// served is a workload that drives colord, running in this process behind
// a loopback listener, with one service.Client in a closed loop. Each op
// submits a 1000-vertex preferential-attachment graph under edge/sparse,
// waits for the job on the server (Server.Wait: no poll interval to
// quantize latency), and fetches and decodes the result. Set-up serves a
// few graphs that no op submits, so the first timed op finds connections
// and code paths warm. With hits set, set-up serves a larger base set and
// every op submits a fresh relabeling of one of its graphs, so it must come
// back from the result cache.
type served struct {
	hits bool
}

const (
	servedN      = 1000
	servedAttach = 2
	// servedOps is how many leading ops the deterministic and allocation
	// metrics cover, so they do not depend on how many ops fit in a run: the
	// server keeps every job, so its live heap, and with it how often GC
	// empties the pools, grows with the op count. A run holds at least this
	// many untraced ops, which also keeps the p90 honest.
	servedOps = 512
	// freshWarmups is how many graphs colord-fresh serves during set-up;
	// hitBases is how many colord-hits serves, its ops cycling through
	// relabelings of them. Per-op cost varies with the graph, so a hit run
	// averages over many bases.
	freshWarmups = 16
	hitBases     = 256
	freshSetups  = 9
	hitsSetups   = 3
)

// servedPinned is PreferentialAttachment(1000, 2, pinSeed).
var servedPinned = fingerprint{N: 1000, M: 1997, Delta: 99, Hash: "97786110ca98f2fd"}

// opSeed derives the generator seed of the i-th graph of a run.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func servedGraph(seed int64) (distcolor.GraphSpec, error) {
	g, err := gen.PreferentialAttachment(servedN, servedAttach, seed)
	if err != nil {
		return distcolor.GraphSpec{}, err
	}
	if f := fingerprintOf(g); f.N != servedN || f.M != servedN*servedAttach-3 {
		return distcolor.GraphSpec{}, fmt.Errorf("preferential-attachment input %v is not %d vertices and %d edges", f, servedN, servedN*servedAttach-3)
	}
	return distcolor.Spec(g), nil
}

// relabel returns an isomorphic copy of spec: vertices renamed by a random
// permutation, each edge's endpoints in random order, and the edge list
// shuffled.
func relabel(spec distcolor.GraphSpec, rng *rand.Rand) distcolor.GraphSpec {
	perm := rng.Perm(spec.N)
	edges := make([][2]int, len(spec.Edges))
	for i, e := range spec.Edges {
		u, v := perm[e[0]], perm[e[1]]
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		edges[i] = [2]int{u, v}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return distcolor.GraphSpec{N: spec.N, Edges: edges}
}

func sparseRequest(spec distcolor.GraphSpec) *distcolor.Request {
	return &distcolor.Request{Algorithm: distcolor.AlgoEdgeSparse, Graph: spec}
}

// colord is one server with its listener and client; bases holds the
// results of the graphs served during set-up.
type colord struct {
	dir   string
	srv   *service.Server
	ts    *httptest.Server
	cl    *service.Client
	bases []*distcolor.Response
}

// startColord starts a server on an empty data dir under parent and serves
// bases through it.
func startColord(ctx context.Context, parent string, bases []distcolor.GraphSpec) (*colord, error) {
	dir, err := os.MkdirTemp(parent, "colord-")
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(service.Config{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	c := &colord{dir: dir, srv: srv, ts: ts, cl: &service.Client{Base: ts.URL, HTTP: ts.Client(), Codec: "binary"}}
	for i, spec := range bases {
		st, resp, err := c.op(ctx, sparseRequest(spec), nil)
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("serving base graph %d: %w", i, err)
		}
		c.bases = append(c.bases, resp)
	}
	return c, nil
}

func (c *colord) close() {
	c.ts.Close()
	c.srv.Close()
	os.RemoveAll(c.dir)
}

// op submits req, waits for its job on the server, and fetches the result.
// With rec set, each of the three calls is a span.
func (c *colord) op(ctx context.Context, req *distcolor.Request, rec *recorder) (st service.JobStatus, resp *distcolor.Response, err error) {
	step := func(name string, f func() error) error {
		if rec == nil {
			return f()
		}
		id := rec.begin(name)
		defer rec.end(id)
		return f()
	}
	if err = step("service.submit", func() (err error) { st, err = c.cl.Submit(ctx, req); return err }); err != nil {
		return st, nil, err
	}
	if err = step("service.wait", func() (err error) { st, err = c.srv.Wait(ctx, st.ID); return err }); err != nil {
		return st, nil, err
	}
	if st.State != service.StateDone {
		return st, nil, nil
	}
	err = step("service.result", func() (err error) { resp, err = c.cl.Result(ctx, st.ID); return err })
	return st, resp, err
}

// counters reads the WAL and HTTP byte counters of the server's /metrics
// exposition, rendered in-process so reading them moves no HTTP bytes.
func (c *colord) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := c.srv.Registry().WriteText(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64, 4)
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		switch name {
		case "colord_wal_appends_total", "colord_wal_fsyncs_total",
			"colord_http_request_bytes_total", "colord_http_response_bytes_total":
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", name, err)
			}
			out[name] = v
		}
	}
	return out, nil
}

func (w *served) run(ctx context.Context, cfg runConfig) (*report, error) {
	pin, err := gen.PreferentialAttachment(servedN, servedAttach, pinSeed)
	if err != nil {
		return nil, err
	}
	if got := fingerprintOf(pin); got != servedPinned {
		return nil, fmt.Errorf("input generator drifted: seed %d gives %v, pinned %v", pinSeed, got, servedPinned)
	}

	// Fresh warm-up graphs take negative indexes, so no op submits one.
	setups, nBases, baseSeed := freshSetups, freshWarmups, func(b int) int64 { return opSeed(cfg.seed, -1-b) }
	if w.hits {
		setups, nBases, baseSeed = hitsSetups, hitBases, func(b int) int64 { return opSeed(cfg.seed, b) }
	}
	var bases []distcolor.GraphSpec
	for b := 0; b < nBases; b++ {
		spec, err := servedGraph(baseSeed(b))
		if err != nil {
			return nil, err
		}
		bases = append(bases, spec)
	}
	rep := newReport()
	times := make([]float64, setups)
	var c *colord
	for i := range times {
		if c != nil {
			c.close()
		}
		runtime.GC()
		t0 := time.Now()
		if c, err = startColord(ctx, cfg.dir, bases); err != nil {
			return nil, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	defer c.close()
	rep.setupS = median(times)

	// request returns the i-th op's input, and for hits the base result the
	// served one must match.
	request := func(i int) (*distcolor.Request, *distcolor.Response, error) {
		if w.hits {
			b := i % hitBases
			return sparseRequest(relabel(bases[b], rand.New(rand.NewSource(opSeed(cfg.seed, i))))), c.bases[b], nil
		}
		spec, err := servedGraph(opSeed(cfg.seed, i))
		return sparseRequest(spec), nil, err
	}
	first, _, err := request(0)
	if err != nil {
		return nil, err
	}
	g0, err := first.Graph.Build()
	if err != nil {
		return nil, err
	}
	rep.input = fingerprintOf(g0)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var det []detMetrics
	shed0 := c.srv.Metrics().Shed
	loop := newLoop(cfg)
	for i := 0; loop.more(rep, servedOps); i++ {
		req, want, err := request(i)
		if err != nil {
			return nil, err
		}
		traced := cfg.trace && i%2 == 1
		var opRec *recorder
		var before map[string]float64
		if traced {
			opRec = rec
			if before, err = c.counters(); err != nil {
				return nil, err
			}
			rec.begin("op")
		}
		h0 := readHeap()
		t0 := time.Now()
		st, resp, err := c.op(ctx, req, opRec)
		d := time.Since(t0)
		h := readHeap().sub(h0)
		if traced {
			rec.end(rec.open[0])
		}
		rep.attempted++
		if err == nil {
			err = w.check(req, st, resp, want)
		}
		if err != nil {
			if traced {
				rec.finishOp()
			}
			rep.fail("op %d: %v", i, err)
			continue
		}
		if len(det) < servedOps {
			det = append(det, detOf(resp))
		}
		if traced {
			v, err := w.traceOp(rec, c, req, st, resp, before, h)
			if err != nil {
				return nil, err
			}
			rep.traced = append(rep.traced, d.Seconds()*1e3)
			rep.layers.addOp(v)
			continue
		}
		rep.lat = append(rep.lat, d.Seconds()*1e3)
		rep.edges += int64(len(req.Graph.Edges))
		if len(rep.lat) <= servedOps {
			rep.heapEdges += int64(len(req.Graph.Edges))
			rep.heap = rep.heap.add(h)
		}
	}
	rep.det = meanDet(det)
	rep.shed = c.srv.Metrics().Shed - shed0
	rep.rec = rec
	return rep, nil
}

// check verifies one served op outside its timed window.
func (w *served) check(req *distcolor.Request, st service.JobStatus, resp *distcolor.Response, want *distcolor.Response) error {
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.CacheHit != w.hits {
		return fmt.Errorf("job %s: cache_hit=%v, want %v", st.ID, st.CacheHit, w.hits)
	}
	g, err := req.Graph.Build()
	if err != nil {
		return err
	}
	if err := distcolor.CheckEdgeColoring(g, resp.Colors, resp.Palette); err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	if resp.Delta != g.MaxDegree() {
		return fmt.Errorf("job %s: Δ=%d, graph has %d", st.ID, resp.Delta, g.MaxDegree())
	}
	if want != nil && (resp.Stats != want.Stats || resp.Palette != want.Palette) {
		return fmt.Errorf("job %s: stats %+v palette %d differ from the base graph's %+v %d", st.ID, resp.Stats, resp.Palette, want.Stats, want.Palette)
	}
	return nil
}

func detOf(resp *distcolor.Response) detMetrics {
	delta := float64(resp.Delta)
	return detMetrics{
		rounds:   float64(resp.Stats.Rounds),
		messages: float64(resp.Stats.Messages),
		palette:  float64(resp.Palette) / delta,
		used:     float64(distinctColors(resp.Colors)) / delta,
	}
}

func meanDet(all []detMetrics) detMetrics {
	var sum detMetrics
	for _, d := range all {
		sum.rounds += d.rounds
		sum.messages += d.messages
		sum.palette += d.palette
		sum.used += d.used
	}
	n := float64(len(all))
	return detMetrics{sum.rounds / n, sum.messages / n, sum.palette / n, sum.used / n}
}

// traceOp completes a traced op: it reads the server's own lifecycle spans
// and counters for the job, and times the codec and canonical-labeling
// calls on this op's request and result outside the op's window.
func (w *served) traceOp(rec *recorder, c *colord, req *distcolor.Request, st service.JobStatus, resp *distcolor.Response, before map[string]float64, h heapSample) (map[string]float64, error) {
	id := st.ID
	defer rec.finishOp()
	spans := rec.opSpans(rec.op)
	v := map[string]float64{
		"runtime.gc_cycles": float64(h.gcCycles),
		"runtime.gc_cpu_ms": h.gcCPUSeconds * 1e3,
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "op":
			v["other_ms"] = selfTime(spans, i).Seconds() * 1e3
		default:
			v[s.Name+"_ms"] = s.ms()
		}
	}

	after, err := c.counters()
	if err != nil {
		return nil, err
	}
	v["store.appends_per_op"] = after["colord_wal_appends_total"] - before["colord_wal_appends_total"]
	v["store.fsyncs_per_op"] = after["colord_wal_fsyncs_total"] - before["colord_wal_fsyncs_total"]
	v["service.http_in_bytes"] = after["colord_http_request_bytes_total"] - before["colord_http_request_bytes_total"]
	v["service.http_out_bytes"] = after["colord_http_response_bytes_total"] - before["colord_http_response_bytes_total"]

	srvSpans, err := c.srv.Spans(id)
	if err != nil {
		return nil, err
	}
	base := spans[1].StartNS // the submission instant, as near as the client sees it
	ids := make([]int, len(srvSpans))
	for k, s := range srvSpans {
		parent := -1
		if s.Parent >= 0 {
			parent = ids[s.Parent]
		}
		start := base + s.StartUS*1000
		ids[k] = rec.add("colord."+s.Name, parent, start, start+s.DurUS*1000)
		if s.Name != "job" {
			v["service."+s.Name+"_ms"] += float64(s.DurUS) / 1e3
		}
	}
	events, _, _, err := c.srv.Trace(id, 0)
	if err != nil {
		return nil, err
	}
	v["service.trace_events_per_op"] = float64(len(events))
	if st.CacheHit {
		v["service.cache_hit_frac"] = 1
	} else {
		v["service.cache_hit_frac"] = 0
	}

	// Layer probes, outside the op: the client's request encoding, the
	// canonical labeling admission computes, and the result decoding.
	probe := rec.begin("probe")
	sp := rec.begin("codec.encode")
	data, err := distcolor.CodecBinary.Encode(req)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	g, err := req.Graph.Build()
	if err != nil {
		return nil, err
	}
	sp = rec.begin("graph.canonical")
	distcolor.CanonicalHash(g)
	rec.end(sp)
	out, err := distcolor.CodecBinary.Encode(resp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("codec.decode")
	var back distcolor.Response
	err = distcolor.CodecBinary.Decode(out, &back)
	rec.end(sp)
	rec.end(probe)
	if err != nil {
		return nil, err
	}
	for _, s := range rec.opSpans(rec.op) {
		switch s.Name {
		case "codec.encode", "codec.decode", "graph.canonical":
			v[s.Name+"_ms"] = s.ms()
		}
	}
	v["codec.request_bytes"] = float64(len(data))
	v["codec.result_bytes"] = float64(len(out))
	return v, nil
}
