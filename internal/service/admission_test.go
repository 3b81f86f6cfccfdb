package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	distcolor "repro"
	"repro/internal/gen"
)

// frozenServer is a server with admission armed and no workers: accepted
// jobs occupy the queue forever, so occupancy — and therefore every shed —
// is deterministic.
func frozenServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Frozen = true
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = -1
	}
	return testServer(t, cfg)
}

// TestOverloadShedsWithBoundedState floods a tiny frozen server and pins
// the acceptance criterion: the flood is answered with sheds while the
// server's retained state (queue, jobs, in-flight bytes) stays bounded —
// no unbounded queue growth.
func TestOverloadShedsWithBoundedState(t *testing.T) {
	s := frozenServer(t, Config{QueueDepth: 4})
	accepted, shed := 0, 0
	for i := 0; i < 200; i++ {
		_, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64(i)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOverloaded):
			shed++
			var ov *OverloadError
			if !errors.As(err, &ov) {
				t.Fatalf("shed error is not *OverloadError: %v", err)
			}
			if ov.Reason != "queue" || ov.RetryAfter < time.Second {
				t.Fatalf("shed = %+v, want queue reason and >=1s retry", ov)
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("queue shed must keep matching ErrQueueFull: %v", err)
			}
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if accepted != 4 || shed != 196 {
		t.Fatalf("accepted/shed = %d/%d, want 4/196", accepted, shed)
	}
	m := s.Metrics()
	if m.QueueDepth != 4 || m.Jobs != 4 || m.Shed != 196 || m.Submitted != 4 {
		t.Fatalf("bounded-state accounting wrong: %+v", m)
	}
	if m.InflightBytes <= 0 || (m.MaxInflightBytes > 0 && m.InflightBytes > m.MaxInflightBytes) {
		t.Fatalf("inflight bytes %d outside (0, %d]", m.InflightBytes, m.MaxInflightBytes)
	}
	if h := s.Health(); h.Ready {
		t.Fatalf("saturated server reports ready: %+v", h)
	}
}

// TestConcurrentAdmissionIsExact is the regression test for the
// reservation scheme: Submit journals outside the server lock, so without
// slot reservation at admit time a concurrent flood would all pass the
// depth check before any submission reaches the queue — the bound would
// leak exactly under the load it exists for. With reservation, a 64-way
// concurrent flood against queue depth 4 admits exactly 4.
func TestConcurrentAdmissionIsExact(t *testing.T) {
	s := frozenServer(t, Config{QueueDepth: 4, DataDir: t.TempDir()})
	var wg sync.WaitGroup
	var accepted, shed atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 20, 0.2, int64(i)))
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if accepted.Load() != 4 || shed.Load() != 60 {
		t.Fatalf("concurrent flood admitted %d / shed %d, want exactly 4/60", accepted.Load(), shed.Load())
	}
	m := s.Metrics()
	if m.QueueDepth != 4 || m.Submitted != 4 {
		t.Fatalf("queue accounting leaked: %+v", m)
	}
}

// TestInflightBytesBound: the byte bound sheds before the queue bound when
// it is the tighter one, with its own reason (not ErrQueueFull), and a
// single request that could never fit is a permanent rejection, not a shed.
func TestInflightBytesBound(t *testing.T) {
	one := jobCost(cycleRequest(16))
	s := frozenServer(t, Config{QueueDepth: 100, MaxInflightBytes: 2*one + one/2})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(cycleRequest(16)); err != nil {
			t.Fatalf("submission %d within the byte budget shed: %v", i, err)
		}
	}
	_, err := s.Submit(cycleRequest(16))
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Reason != "inflight-bytes" {
		t.Fatalf("third submission: %v, want inflight-bytes shed", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("byte-bound shed must not match ErrQueueFull")
	}
	if m := s.Metrics(); m.InflightBytes != 2*one {
		t.Fatalf("inflight bytes %d, want %d", m.InflightBytes, 2*one)
	}

	// A buffered request whose own cost exceeds the bound sheds with 429 —
	// it can still arrive via chunked binary ingest, which admits per chunk,
	// so the refusal is not permanent.
	tiny := frozenServer(t, Config{QueueDepth: 100, MaxInflightBytes: 100})
	_, err = tiny.Submit(cycleRequest(16))
	if !errors.As(err, &ov) || ov.Reason != "inflight-bytes" {
		t.Fatalf("oversized buffered request got %v, want inflight-bytes shed", err)
	}
	if m := tiny.Metrics(); m.Shed != 1 || m.InflightBytes != 0 {
		t.Fatalf("oversized shed accounting: %+v", m)
	}
}

// TestInflightBytesReleaseOnTerminal: the admission charge drains as jobs
// finish (done, canceled-from-queue) so capacity comes back. A worker
// releases it after the job's terminal fsync, which follows the done
// transition Wait returns on, so the done path waits for the drain;
// Cancel releases before it returns.
func TestInflightBytesReleaseOnTerminal(t *testing.T) {
	s := testServer(t, Config{Workers: 1, CacheEntries: -1})
	st, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	waitInflightZero(t, s)
	// Frozen path: cancel a queued job.
	f := frozenServer(t, Config{QueueDepth: 8})
	fst, err := f.Submit(cycleRequest(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Cancel(fst.ID); err != nil {
		t.Fatal(err)
	}
	if m := f.Metrics(); m.InflightBytes != 0 {
		t.Fatalf("canceled: inflight bytes %d after terminal transition, want 0", m.InflightBytes)
	}
	if h := f.Health(); !h.Ready {
		t.Fatalf("drained server not ready: %+v", h)
	}
}

// TestHTTP429AndHealthz: over HTTP a shed is 429 with a Retry-After
// header, and /v1/healthz flips 200→503 as admission saturates.
func TestHTTP429AndHealthz(t *testing.T) {
	s := frozenServer(t, Config{QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	c := &Client{Base: ts.URL, MaxRetries: -1}

	h, err := c.Healthz(ctx)
	if err != nil || !h.Ready {
		t.Fatalf("fresh server healthz: %+v, %v", h, err)
	}
	if _, err := c.Submit(ctx, cycleRequest(12)); err != nil {
		t.Fatal(err)
	}

	// Saturated: raw HTTP shows the 429 contract.
	body, _ := json.Marshal(cycleRequest(14))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}

	// The typed client surfaces the same as *HTTPError 429.
	_, err = c.Submit(ctx, cycleRequest(16))
	var he *HTTPError
	if !errors.As(err, &he) || he.Code != http.StatusTooManyRequests {
		t.Fatalf("client submit: %v, want HTTP 429", err)
	}

	h, err = c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Ready {
		t.Fatalf("saturated healthz still ready: %+v", h)
	}
}

// TestClientRetriesShedSubmissions: a 429 is retried with backoff until
// the server admits the work; ctx cancellation cuts the retry loop short.
func TestClientRetriesShedSubmissions(t *testing.T) {
	var mu struct {
		n int
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.n++
		if mu.n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errorBody{Error: "shed"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateQueued})
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c := &Client{Base: ts.URL, MaxRetries: 3, RetryBase: time.Millisecond}
	st, err := c.Submit(context.Background(), cycleRequest(8))
	if err != nil {
		t.Fatalf("submit with retries: %v", err)
	}
	if st.ID != "j1" || mu.n != 3 {
		t.Fatalf("served after %d attempts with %+v, want 3 attempts", mu.n, st)
	}

	// Always-429: the retry loop must honor ctx cancellation promptly.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer always.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = (&Client{Base: always.URL, MaxRetries: 5}).Submit(ctx, cycleRequest(8))
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retry loop returned %v, want ctx deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("retry loop ignored ctx for %v", time.Since(start))
	}
}

// TestClientWaitHonorsContext: the satellite fix — Wait used to poll on
// wall-clock time only; a canceled context must now end the poll loop
// between status fetches.
func TestClientWaitHonorsContext(t *testing.T) {
	s := frozenServer(t, Config{QueueDepth: 8}) // the job never runs
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	st, err := c.Submit(context.Background(), cycleRequest(12))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait returned %v, want ctx deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Wait ignored ctx for %v", time.Since(start))
	}
}

// TestBatchShardedPartialFailure: a batch larger than capacity comes back
// index-aligned with accepted items, retryable sheds (with backoff hints),
// and non-retryable invalid items — partial failure, not all-or-nothing.
func TestBatchShardedPartialFailure(t *testing.T) {
	s := frozenServer(t, Config{Workers: 4, QueueDepth: 8})
	reqs := make([]distcolor.Request, 0, 22)
	for i := 0; i < 20; i++ {
		reqs = append(reqs, *gnpRequest(distcolor.AlgoEdgeGreedy, 20, 0.2, int64(i)))
	}
	reqs = append(reqs, distcolor.Request{Algorithm: "nope", Graph: distcolor.GraphSpec{N: 2}})
	reqs = append(reqs, distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.GraphSpec{N: -1}})
	out := s.submitAll(reqs)
	if len(out.Jobs) != len(reqs) {
		t.Fatalf("outcomes %d, want %d", len(out.Jobs), len(reqs))
	}
	accepted, shed := 0, 0
	for i, bj := range out.Jobs[:20] {
		switch {
		case bj.Error == "":
			accepted++
			if bj.ID == "" || bj.State != StateQueued {
				t.Fatalf("accepted item %d malformed: %+v", i, bj)
			}
		case bj.Retryable:
			shed++
			if bj.RetryAfterMS < 1000 {
				t.Fatalf("shed item %d lacks a backoff hint: %+v", i, bj)
			}
		default:
			t.Fatalf("valid item %d failed non-retryably: %+v", i, bj)
		}
	}
	if accepted != 8 || shed != 12 {
		t.Fatalf("accepted/shed = %d/%d, want 8/12 (queue depth 8)", accepted, shed)
	}
	for i := 20; i < 22; i++ {
		if out.Jobs[i].Error == "" || out.Jobs[i].Retryable {
			t.Fatalf("invalid item %d not a permanent failure: %+v", i, out.Jobs[i])
		}
	}
}

// TestBatchPerShardBudget: a single batch on a byte-bounded server stops at
// its per-shard budget and sheds the rest locally as retryable.
func TestBatchPerShardBudget(t *testing.T) {
	one := jobCost(gnpRequest(distcolor.AlgoEdgeGreedy, 20, 0.2, 0))
	s := frozenServer(t, Config{Workers: 1, QueueDepth: 100, MaxInflightBytes: 2*one + one/2})
	reqs := make([]distcolor.Request, 10)
	for i := range reqs {
		reqs[i] = *gnpRequest(distcolor.AlgoEdgeGreedy, 20, 0.2, int64(i))
	}
	out := s.submitAll(reqs)
	accepted := 0
	for i, bj := range out.Jobs {
		if bj.Error == "" {
			accepted++
		} else if !bj.Retryable {
			t.Fatalf("item %d shed non-retryably: %+v", i, bj)
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d of 10, want 2 (budget two jobs)", accepted)
	}
}

// TestCoverVertexRejected is the coverHash regression test: an invalid
// cover that differs from a served valid cover only by an out-of-range
// vertex used to alias the valid cover's cache key and be *served* its
// cached coloring; it must now be rejected at submission with a typed
// error.
func TestCoverVertexRejected(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	cg, cliques, err := gen.BoundedDiversityCliqueGraph(30, 9, 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := distcolor.Spec(cg)
	spec.Cliques = cliques
	valid := &distcolor.Request{Algorithm: distcolor.AlgoVertexCD, Graph: spec, X: 1}
	st, err := s.Submit(valid)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	// Same graph, same cover — except one clique smuggles vertex N+99.
	// Pre-fix, coverHash skipped it, the key collided, and the cache served
	// the valid cover's coloring for an invalid request.
	badCliques := make([][]int32, len(cliques))
	copy(badCliques, cliques)
	bad0 := append([]int32{}, badCliques[0]...)
	badCliques[0] = append(bad0, int32(cg.N()+99))
	badSpec := spec
	badSpec.Cliques = badCliques
	_, err = s.Submit(&distcolor.Request{Algorithm: distcolor.AlgoVertexCD, Graph: badSpec, X: 1})
	var cve *CoverVertexError
	if !errors.As(err, &cve) {
		t.Fatalf("out-of-range cover vertex got %v, want *CoverVertexError", err)
	}
	if cve.Vertex != int32(cg.N()+99) || cve.Clique != 0 {
		t.Fatalf("error pinpoints clique %d vertex %d, want 0/%d", cve.Clique, cve.Vertex, cg.N()+99)
	}
	if m := s.Metrics(); m.CacheHits != 0 {
		t.Fatalf("invalid cover was served from cache: %+v", m)
	}

	// The rejection must not depend on the cache being in play: a
	// cache-disabled server rejects the same request identically.
	nocache := testServer(t, Config{Workers: 1, CacheEntries: -1})
	_, err = nocache.Submit(&distcolor.Request{Algorithm: distcolor.AlgoVertexCD, Graph: badSpec, X: 1})
	if !errors.As(err, &cve) {
		t.Fatalf("cache-disabled server accepted the invalid cover: %v", err)
	}
}
