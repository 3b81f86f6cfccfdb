package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	distcolor "repro"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/service"
)

// Remote mode: instead of running the experiment tables in-process,
// colorbench drives a live colord instance — the bench harness doubling as
// a service load generator. Workloads are synthesized server-side via
// /v1/generate, every sweep is submitted twice so the second pass exercises
// the result cache, and the server's own counters (cache hits, rounds,
// messages) are reported alongside per-job results.

// remoteSweep is one generator workload family plus the algorithm template
// to run it under.
type remoteSweep struct {
	name string
	gen  service.GenSpec
	tmpl distcolor.Request
}

func remoteSweeps(seed int64, quick bool) []remoteSweep {
	count := 3
	n := 600
	hub := 200
	if quick {
		count = 2
		n = 300
		hub = 100
	}
	return []remoteSweep{
		{
			name: "sparse/foresthub",
			gen:  service.GenSpec{Family: "foresthub", N: n, A: 2, Hub: hub, Seed: seed, Count: count},
			tmpl: distcolor.Request{Algorithm: distcolor.AlgoEdgeSparse, Arboricity: 3},
		},
		{
			name: "star/nearregular",
			gen:  service.GenSpec{Family: "nearregular", N: 256, Degree: 16, Seed: seed, Count: count},
			tmpl: distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, X: 1},
		},
		{
			name: "greedy/gnp",
			gen:  service.GenSpec{Family: "gnp", N: 200, P: 0.05, Seed: seed, Count: count},
			tmpl: distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy},
		},
		{
			name: "cd/hypergraph",
			gen:  service.GenSpec{Family: "hypergraph", NV: 30, Rank: 3, NE: 120, Seed: seed, Count: count},
			tmpl: distcolor.Request{Algorithm: distcolor.AlgoVertexCD, X: 1},
		},
	}
}

// runRemote drives the colord instance at base through the sweeps.
func runRemote(ctx context.Context, base string, seed int64, quick bool) error {
	c := &service.Client{Base: base}
	before, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("cannot reach colord at %s: %w", base, err)
	}

	var rows [][]string
	for _, sw := range remoteSweeps(seed, quick) {
		// Two passes over identical workloads: the first simulates, the
		// second must be answered by the content-addressed result cache.
		for pass := 1; pass <= 2; pass++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			batch, genErr := c.Generate(ctx, service.GenerateRequest{Gen: sw.gen, Template: sw.tmpl})
			if genErr != nil {
				return fmt.Errorf("sweep %s pass %d: %w", sw.name, pass, genErr)
			}
			for i, job := range batch.Jobs {
				if job.Error != "" {
					return fmt.Errorf("sweep %s pass %d job %d: %s", sw.name, pass, i, job.Error)
				}
				waitCtx, cancel := context.WithTimeout(ctx, 10*time.Minute)
				st, waitErr := c.Wait(waitCtx, job.ID, 50*time.Millisecond)
				cancel()
				if waitErr != nil {
					return waitErr
				}
				if st.State != service.StateDone {
					return fmt.Errorf("sweep %s pass %d job %s: state %s (%s)", sw.name, pass, job.ID, st.State, st.Error)
				}
				// The cache contract is part of what this harness checks:
				// an identical pass-2 workload must not re-simulate.
				if pass == 2 && !st.CacheHit {
					return fmt.Errorf("sweep %s job %s: pass-2 workload was not served from the result cache", sw.name, job.ID)
				}
				rows = append(rows, []string{
					sw.name, strconv.Itoa(pass), st.ID,
					strconv.Itoa(st.N), strconv.Itoa(st.M),
					st.Algorithm,
					strconv.FormatInt(st.Palette, 10),
					strconv.Itoa(st.Rounds),
					strconv.FormatInt(st.Messages, 10),
					strconv.FormatInt(st.WallMS, 10),
					strconv.FormatBool(st.CacheHit),
				})
			}
		}
	}

	if err := bench.RenderTable(os.Stdout,
		"colord load run (remote): every pass-2 row must be served from the result cache",
		[]string{"sweep", "pass", "job", "n", "m", "algorithm", "palette", "rounds", "messages", "wall ms", "cached"},
		rows); err != nil {
		return err
	}

	after, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nserver counters over this run: submitted=%d completed=%d cache hits=%d misses=%d bad=%d; rounds=%d messages=%d\n",
		after.Submitted-before.Submitted,
		after.Completed-before.Completed,
		after.CacheHits-before.CacheHits,
		after.CacheMisses-before.CacheMisses,
		after.CacheBadHits-before.CacheBadHits,
		after.RoundsTotal-before.RoundsTotal,
		after.MessagesTotal-before.MessagesTotal)
	return nil
}

// runOverload floods the colord instance at base with tiny submissions —
// retries disabled so every 429 is observed — and reports the admission
// split (accepted vs shed), shed-response latency, the p50/p95/max of the
// Retry-After hints the server handed out, and the readiness view before
// and after. The in-process twin of this scenario (a frozen server,
// deterministic occupancy) is the service/overload workload gated by
// BENCH_simcore.json; this remote mode measures a live daemon instead.
func runOverload(ctx context.Context, base string, n, concurrency int) error {
	c := &service.Client{Base: base, MaxRetries: -1}
	h0, err := c.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("cannot reach colord at %s: %w", base, err)
	}
	fmt.Printf("healthz before: ready=%v queue=%d/%d inflight=%dB\n", h0.Ready, h0.QueueDepth, h0.QueueCap, h0.InflightBytes)

	type outcome struct {
		shed       bool
		err        error
		dur        time.Duration
		retryAfter time.Duration
	}
	results := make([]outcome, n)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			g := gen.GNP(24, 0.2, int64(i)) // distinct seeds defeat the cache
			req := &distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.Spec(g)}
			t0 := time.Now()
			_, subErr := c.Submit(ctx, req)
			d := time.Since(t0)
			var he *service.HTTPError
			switch {
			case subErr == nil:
				results[i] = outcome{dur: d}
			case errors.As(subErr, &he) && he.Code == http.StatusTooManyRequests:
				results[i] = outcome{shed: true, dur: d, retryAfter: he.RetryAfter}
			default:
				results[i] = outcome{err: subErr, dur: d}
			}
		}(i)
	}
	wg.Wait()

	accepted, shed := 0, 0
	var shedTotal, shedMax time.Duration
	var retryAfters []time.Duration
	for _, r := range results {
		switch {
		case r.err != nil:
			return fmt.Errorf("overload submission failed outside admission: %w", r.err)
		case r.shed:
			shed++
			shedTotal += r.dur
			if r.dur > shedMax {
				shedMax = r.dur
			}
			retryAfters = append(retryAfters, r.retryAfter)
		default:
			accepted++
		}
	}
	h1, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("flood: %d submissions → %d accepted, %d shed (429)\n", n, accepted, shed)
	if shed > 0 {
		fmt.Printf("shed latency: mean %v, max %v\n", shedTotal/time.Duration(shed), shedMax)
		// The Retry-After distribution is the server's backpressure signal:
		// under a deepening backlog the hints should climb, and a flat
		// all-zero line means the header is missing — a protocol bug.
		sort.Slice(retryAfters, func(i, j int) bool { return retryAfters[i] < retryAfters[j] })
		p := func(q float64) time.Duration {
			i := int(q * float64(len(retryAfters)-1))
			return retryAfters[i]
		}
		fmt.Printf("retry-after hints: p50 %v, p95 %v, max %v\n",
			p(0.50), p(0.95), retryAfters[len(retryAfters)-1])
	}
	fmt.Printf("healthz after:  ready=%v queue=%d/%d inflight=%dB\n", h1.Ready, h1.QueueDepth, h1.QueueCap, h1.InflightBytes)
	if shed == 0 {
		fmt.Println("note: nothing was shed — raise -overload or lower the server's -queue/-max-inflight-bytes to exercise admission")
	}
	return nil
}
