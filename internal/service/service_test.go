package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	distcolor "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func cycleRequest(n int) *distcolor.Request {
	g := graph.Cycle(n)
	return &distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.Spec(g)}
}

func gnpRequest(algorithm string, n int, p float64, seed int64) *distcolor.Request {
	return &distcolor.Request{Algorithm: algorithm, Graph: distcolor.Spec(gen.GNP(n, p, seed))}
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State != StateDone {
		t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
	}
	return st
}

func TestSubmitRunVerify(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	req := gnpRequest(distcolor.AlgoEdgeStar, 48, 0.2, 1)
	req.X = 1
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() && st.State != StateDone {
		t.Fatalf("fresh submission immediately %s", st.State)
	}
	st = waitDone(t, s, st.ID)
	if st.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	resp, _, err := s.Result(st.ID)
	if err != nil || resp == nil {
		t.Fatalf("result: %v (resp=%v)", err, resp)
	}
	g, _ := req.Graph.Build()
	if err := verify.EdgeColoring(g, resp.Colors, resp.Palette); err != nil {
		t.Fatalf("served coloring invalid: %v", err)
	}
	if resp.Stats.Rounds <= 0 {
		t.Fatalf("served stats empty: %+v", resp.Stats)
	}
}

func TestCacheHitOnIdenticalResubmission(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	req := cycleRequest(24)
	st1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st1.ID)

	st2, err := s.Submit(cycleRequest(24))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("identical resubmission not served from cache: %+v", st2)
	}
	m := s.Metrics()
	if m.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (metrics %+v)", m.CacheHits, m)
	}
	if m.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1", m.CacheMisses)
	}
}

func TestCacheHitOnIsomorphicResubmission(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	g := gen.GNP(32, 0.2, 5)
	st1, err := s.Submit(&distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.Spec(g)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st1.ID)

	// Random relabeling: same structure, different vertex names.
	rng := rand.New(rand.NewSource(77))
	perm := rng.Perm(g.N())
	b := distcolor.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(&distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.Spec(h)})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatalf("isomorphic resubmission missed the cache: %+v", st2)
	}
	resp, _, err := s.Result(st2.ID)
	if err != nil || resp == nil {
		t.Fatalf("result: %v", err)
	}
	if err := verify.EdgeColoring(h, resp.Colors, resp.Palette); err != nil {
		t.Fatalf("remapped cached coloring invalid on the relabeled graph: %v", err)
	}
}

func TestVertexAlgorithmsRoundTrip(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	// Δ+1 vertex coloring.
	req := gnpRequest(distcolor.AlgoVertexDelta1, 30, 0.15, 3)
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	resp, _, _ := s.Result(st.ID)
	g, _ := req.Graph.Build()
	if err := verify.VertexColoring(g, resp.Colors, resp.Palette); err != nil {
		t.Fatalf("vertex coloring invalid: %v", err)
	}

	// CD coloring of a bounded-diversity clique graph, then an identical
	// resubmission from cache.
	cg, cliques, err := gen.BoundedDiversityCliqueGraph(40, 12, 5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	spec := distcolor.Spec(cg)
	spec.Cliques = cliques
	cdReq := &distcolor.Request{Algorithm: distcolor.AlgoVertexCD, Graph: spec, X: 1}
	st2, err := s.Submit(cdReq)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, s, st2.ID)
	resp2, _, _ := s.Result(st2.ID)
	if err := verify.VertexColoring(cg, resp2.Colors, resp2.Palette); err != nil {
		t.Fatalf("cd coloring invalid: %v", err)
	}
	again := *cdReq
	st3, err := s.Submit(&again)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.CacheHit {
		t.Fatalf("cd resubmission missed the cache: %+v", st3)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	// A slow job to occupy the worker plus one queued slot.
	slow := func(seed int64) *distcolor.Request {
		return gnpRequest(distcolor.AlgoEdgeStar, 160, 0.15, seed)
	}
	if _, err := s.Submit(slow(1)); err != nil {
		t.Fatal(err)
	}
	// Fill the queue (the first job may or may not have been picked up yet;
	// keep submitting until rejection, bounded).
	rejected := false
	for i := int64(2); i < 16; i++ {
		if _, err := s.Submit(slow(i)); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("unexpected submit error: %v", err)
			}
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("queue depth 1 never rejected a submission")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	// Occupy the single worker with a slow job, then cancel a queued one.
	if _, err := s.Submit(gnpRequest(distcolor.AlgoEdgeStar, 160, 0.15, 21)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 64, 0.2, 22))
	if err != nil {
		t.Fatal(err)
	}
	cst, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != StateCanceled && cst.State != StateRunning && cst.State != StateDone {
		t.Fatalf("cancel left state %s", cst.State)
	}
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled && final.State != StateDone {
		t.Fatalf("canceled job finished %s", final.State)
	}
}

func TestTraceRecordsRounds(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	st, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 40, 0.2, 13))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	events, state, _, err := s.Trace(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if state != StateDone {
		t.Fatalf("trace state %s", state)
	}
	if len(events) == 0 {
		t.Fatal("no round-trace events recorded")
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[len(events)-1].Exec < 1 {
		t.Fatal("trace never identified an execution")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	req := cycleRequest(30)
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	resp, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := req.Graph.Build()
	if err := verify.EdgeColoring(g, resp.Colors, resp.Palette); err != nil {
		t.Fatalf("HTTP-served coloring invalid: %v", err)
	}

	// Streaming trace over HTTP: events then a terminal line.
	n := 0
	state, err := c.Trace(ctx, st.ID, func(TraceEvent) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if state != StateDone || n == 0 {
		t.Fatalf("trace stream: state=%s events=%d", state, n)
	}

	// Second identical submission: served from cache, observable in the
	// metrics endpoint.
	st2, err := c.Submit(ctx, cycleRequest(30))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmission not cache-served: %+v", st2)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits < 1 {
		t.Fatalf("metrics report %d cache hits", m.CacheHits)
	}
}

func TestHTTPGenerateAndBatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	out, err := c.Generate(ctx, GenerateRequest{
		Gen:      GenSpec{Family: "foresthub", N: 80, A: 2, Hub: 30, Seed: 4, Count: 2},
		Template: distcolor.Request{Algorithm: distcolor.AlgoEdgeSparse, Arboricity: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("generate submitted %d jobs", len(out.Jobs))
	}
	for _, job := range out.Jobs {
		if job.Error != "" {
			t.Fatalf("generated job failed to submit: %s", job.Error)
		}
		st, err := c.Wait(ctx, job.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("generated job %s: %s (%s)", job.ID, st.State, st.Error)
		}
	}

	// Batch: one good and one bogus request; outcomes are index-aligned.
	batch, err := c.Batch(ctx, []distcolor.Request{
		*cycleRequest(12),
		{Algorithm: "nope", Graph: distcolor.GraphSpec{N: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 || batch.Jobs[0].Error != "" || batch.Jobs[1].Error == "" {
		t.Fatalf("batch outcomes wrong: %+v", batch.Jobs)
	}
	if batch.Jobs[1].Retryable {
		t.Fatalf("invalid request marked retryable: %+v", batch.Jobs[1])
	}
}

// TestConcurrentHammer exercises the cache and worker pool from many
// goroutines at once; it is the subject of the Makefile's race target.
func TestConcurrentHammer(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 512})
	const (
		goroutines = 8
		perG       = 12
		distinct   = 5 // distinct workloads → heavy deliberate cache contention
	)
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64((w*perG+i)%distinct))
				st, err := s.Submit(req)
				if err != nil {
					errs <- err
					continue
				}
				fin, err := s.Wait(ctx, st.ID)
				if err != nil {
					errs <- err
					continue
				}
				if fin.State != StateDone {
					errs <- fmt.Errorf("job %s: %s (%s)", fin.ID, fin.State, fin.Error)
					continue
				}
				resp, _, err := s.Result(fin.ID)
				if err != nil || resp == nil {
					errs <- fmt.Errorf("result %s: %v", fin.ID, err)
					continue
				}
				g, _ := req.Graph.Build()
				if err := verify.EdgeColoring(g, resp.Colors, resp.Palette); err != nil {
					errs <- fmt.Errorf("job %s served invalid coloring: %v", fin.ID, err)
				}
				if i%3 == 0 {
					_, _, _, _ = s.Trace(fin.ID, 0)
					_ = s.Metrics()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Completed != goroutines*perG {
		t.Fatalf("completed %d of %d", m.Completed, goroutines*perG)
	}
	if m.CacheHits == 0 {
		t.Fatal("hammer with repeated workloads produced zero cache hits")
	}
	if m.CacheHits+m.CacheMisses != m.Submitted {
		t.Fatalf("cache accounting: hits %d + misses %d != submitted %d", m.CacheHits, m.CacheMisses, m.Submitted)
	}
}

// TestCacheEvictionLRU fills a tiny cache beyond capacity and checks both
// bounded size and that re-running an evicted workload re-simulates.
func TestCacheEvictionLRU(t *testing.T) {
	s := testServer(t, Config{Workers: 1, CacheEntries: 2})
	for seed := int64(0); seed < 4; seed++ {
		st, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 16, 0.25, seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, cap 2", n)
	}
	// Workload 0 was evicted (LRU): resubmission misses.
	st, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 16, 0.25, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("evicted workload reported a cache hit")
	}
	waitDone(t, s, st.ID)
}

// TestParallelPolicyIsBitIdentical checks the Config.Parallel wall-clock
// policy: the sharded engine must serve exactly the coloring the
// sequential engine serves.
func TestParallelPolicyIsBitIdentical(t *testing.T) {
	seqS := testServer(t, Config{Workers: 1, CacheEntries: -1})
	parS := testServer(t, Config{Workers: 1, CacheEntries: -1, Parallel: true})
	req := gnpRequest(distcolor.AlgoEdgeGreedy, 48, 0.2, 31)
	var got [2][]int64
	for i, s := range []*Server{seqS, parS} {
		r := *req
		st, err := s.Submit(&r)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
		resp, _, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = resp.Colors
	}
	if len(got[0]) != len(got[1]) {
		t.Fatalf("color vector lengths differ: %d vs %d", len(got[0]), len(got[1]))
	}
	for e := range got[0] {
		if got[0][e] != got[1][e] {
			t.Fatalf("edge %d: sequential color %d, parallel color %d", e, got[0][e], got[1][e])
		}
	}
}

// TestCacheKeyNormalizesDefaults: X omitted (0) and X:1 run identically for
// edge/star, so they must share a cache entry; likewise Q 0 vs 3 for
// edge/sparse.
func TestCacheKeyNormalizesDefaults(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	g := gen.GNP(24, 0.25, 17)
	first := &distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, Graph: distcolor.Spec(g)} // X omitted
	st, err := s.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	second := &distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, Graph: distcolor.Spec(g), X: 1}
	st2, err := s.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatalf("X:1 resubmission of an X-omitted workload missed the cache: %+v", st2)
	}

	sp := &distcolor.Request{Algorithm: distcolor.AlgoEdgeSparse, Graph: distcolor.Spec(gen.ForestUnion(40, 2, 2)), Arboricity: 2}
	st3, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st3.ID)
	spQ := *sp
	spQ.Q = 3 // the default, spelled out
	st4, err := s.Submit(&spQ)
	if err != nil {
		t.Fatal(err)
	}
	if !st4.CacheHit {
		t.Fatalf("Q:3 resubmission of a Q-omitted workload missed the cache: %+v", st4)
	}
}

// TestCacheSizeGate: graphs over the canonicalization bounds bypass the
// cache (counted as skipped) but still run and serve.
func TestCacheSizeGate(t *testing.T) {
	s := testServer(t, Config{Workers: 1, CacheMaxVertices: 10})
	req := cycleRequest(24) // 24 > 10: uncacheable
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	st2, err := s.Submit(cycleRequest(24))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st2.ID)
	if st2.CacheHit {
		t.Fatal("over-bound graph reported a cache hit")
	}
	m := s.Metrics()
	if m.CacheSkipped != 2 || m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("gate accounting wrong: %+v", m)
	}
}

// TestTraceDepthOne: the minimal trace bound must not panic the observer.
func TestTraceDepthOne(t *testing.T) {
	s := testServer(t, Config{Workers: 1, TraceDepth: 1, CacheEntries: -1})
	st, err := s.Submit(cycleRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	events, _, firstSeq, err := s.Trace(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 && firstSeq == 0 {
		t.Fatal("depth-1 trace retained nothing and reported no drops")
	}
}

// TestSubmitRejectsOutOfRangeEndpoints guards the wire codec against int32
// wrap-around: a 64-bit endpoint must be rejected, not silently truncated.
func TestSubmitRejectsOutOfRangeEndpoints(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	req := &distcolor.Request{
		Algorithm: distcolor.AlgoEdgeGreedy,
		Graph:     distcolor.GraphSpec{N: 5, Edges: [][2]int{{4294967299, 1}}},
	}
	if _, err := s.Submit(req); err == nil {
		t.Fatal("endpoint 2^32+3 was accepted")
	}
}

// TestGenerateRejectsHostileParams: the generator endpoint must bound its
// wire parameters before any graph materializes.
func TestGenerateRejectsHostileParams(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	for _, g := range []GenSpec{
		{Family: "tree", N: -1},
		{Family: "tree", N: 1 << 30},
		{Family: "gnp", N: 10, Count: 1 << 40},
		{Family: "grid", Rows: 40000, Cols: 40000},
		{Family: "hypergraph", NV: 10, Rank: 3, NE: 100_000_000},
	} {
		_, err := c.Generate(context.Background(), GenerateRequest{Gen: g, Template: distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy}})
		if err == nil {
			t.Fatalf("hostile generator spec %+v was accepted", g)
		}
	}
}
