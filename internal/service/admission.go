package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	distcolor "repro"
)

// Admission control: the front door of the service is no longer an
// unbounded queue. Every submission carries an estimated memory cost
// (jobCost) and the server bounds both the queue depth and the total
// estimated bytes of accepted-but-unfinished work (Config.MaxInflightBytes).
// A submission over either bound is shed with *OverloadError — HTTP 429
// plus a Retry-After derived from the observed service rate — instead of
// growing the queue until the daemon OOMs. /v1/healthz exposes the same
// accounting as a readiness view (503 while shedding), so load balancers
// can drain a saturated instance before its clients see 429s.
//
// Recovery bypasses admission on purpose: a job replayed from the WAL was
// admitted before the crash, so it is re-enqueued unconditionally — but its
// cost still counts toward the in-flight budget, so fresh submissions shed
// until the backlog drains.

// ErrOverloaded matches (via errors.Is) every load-shedding rejection.
var ErrOverloaded = errors.New("service: overloaded")

// ErrDegraded matches (via errors.Is) submissions shed because the server
// is in read-only degraded mode: the journal cannot make new work durable.
var ErrDegraded = errors.New("service: degraded, journal unavailable")

// DegradedError is a degraded-mode shed (HTTP 503 + Retry-After): the
// journal is failing, so a submission that is not a cache hit is refused
// rather than accepted without durability. It matches ErrDegraded.
type DegradedError struct {
	// Reason is the journal error that flipped the server degraded.
	Reason string
	// RetryAfter hints when to retry; the server probes the store for
	// recovery on the same cadence it prices here.
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("service: degraded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Is matches ErrDegraded.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// OverloadError is a load-shedding rejection: the work was not accepted and
// the client should retry after RetryAfter. It matches ErrOverloaded, and —
// for the queue-bound case — the legacy ErrQueueFull.
type OverloadError struct {
	// Reason is "queue" (depth bound) or "inflight-bytes" (memory bound).
	Reason string
	// RetryAfter estimates when capacity frees up, from the current backlog
	// and the observed per-job service time.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Is matches ErrOverloaded always, and ErrQueueFull for the queue-depth
// bound — the error pre-admission-control callers tested for.
func (e *OverloadError) Is(target error) bool {
	return target == ErrOverloaded || (target == ErrQueueFull && e.Reason == "queue")
}

// jobCostBase is the fixed per-job overhead estimate (job struct, trace
// buffer headroom, bookkeeping) on top of the graph-proportional terms.
const jobCostBase = 4096

// jobCostPerEdge prices one edge: the spec pair, the CSR arcs, and the
// simulator's message slabs, which are per vertex of the line graph the
// edge algorithms run on, so per edge. Chunked ingest charges admission with
// the same constant, so a streamed job's accumulated charge equals what
// jobCost would have said had the request arrived buffered.
const jobCostPerEdge = 96

// jobCost estimates the resident bytes a submission pins while in flight:
// the spec, the built graph's arcs and mates, and the simulator's message
// slabs over the line graph all scale with edges; vertex state scales
// with n. It is a
// deliberate overestimate-leaning heuristic — admission is a memory fuse,
// not an allocator.
func jobCost(req *distcolor.Request) int64 {
	return jobCostSansEdges(req) + int64(len(req.Graph.Edges))*jobCostPerEdge
}

// jobCostSansEdges is jobCost's edge-independent part — what a chunked
// stream charges up front, before any edge bytes arrive.
func jobCostSansEdges(req *distcolor.Request) int64 {
	cost := int64(jobCostBase)
	cost += int64(req.Graph.N) * 16
	for _, cl := range req.Graph.Cliques {
		cost += int64(len(cl)) * 16
	}
	return cost
}

// admitLocked charges cost against the queue-depth and in-flight-bytes
// bounds, returning an *OverloadError when either would be exceeded. On
// nil it reserves both a queue slot and the byte charge: Submit journals
// outside s.mu before the job enters the queue, so occupancy must be
// counted at admission (queueReserved) — otherwise concurrent submissions
// would all pass the depth check before any of them publishes, and the
// queue bound would leak exactly under the load it exists for. The caller
// owns the reservation: the publish path converts it into a queue entry,
// withdraw returns it, and releaseLocked returns the bytes at the job's
// terminal transition.
func (s *Server) admitLocked(cost int64) error {
	if len(s.queue)+s.queueReserved >= s.cfg.QueueDepth {
		s.obs.shed.Inc()
		return &OverloadError{Reason: "queue", RetryAfter: s.retryAfterLocked()}
	}
	if s.cfg.MaxInflightBytes > 0 && s.inflightBytes+cost > s.cfg.MaxInflightBytes {
		s.obs.shed.Inc()
		return &OverloadError{Reason: "inflight-bytes", RetryAfter: s.retryAfterLocked()}
	}
	s.queueReserved++
	s.inflightBytes += cost
	return nil
}

// releaseLocked returns a job's admission charge; the caller holds s.mu.
func (s *Server) releaseLocked(cost int64) {
	s.inflightBytes -= cost
}

// admitChunkLocked charges one edge chunk of an in-progress ingest stream.
// held is the charge the stream has accumulated so far: it is subtracted
// from the occupancy check, so a stream is bounded by what the REST of the
// server holds plus one chunk — not by its own size. That asymmetry is the
// point of chunked ingest: a graph larger than MaxInflightBytes is
// admissible as long as each chunk fits next to everyone else's work,
// because by the time later chunks arrive the stream has already been
// granted the earlier ones. The queue slot was reserved with the stream's
// base charge (admitLocked), so no depth check here.
func (s *Server) admitChunkLocked(chunk, held int64) error {
	if s.cfg.MaxInflightBytes > 0 && s.inflightBytes-held+chunk > s.cfg.MaxInflightBytes {
		s.obs.shed.Inc()
		return &OverloadError{Reason: "inflight-bytes", RetryAfter: s.retryAfterLocked()}
	}
	s.inflightBytes += chunk
	return nil
}

// releaseStream abandons an in-progress (or handed-off-then-rejected)
// ingest stream: its queue reservation and accumulated byte charge return
// to the admission budget.
func (s *Server) releaseStream(held int64) {
	s.mu.Lock()
	s.queueReserved--
	s.releaseLocked(held)
	s.mu.Unlock()
}

// retryAfterLocked estimates when shed work could be re-submitted: the
// backlog (queued + running jobs) divided by the worker pool, priced at the
// observed mean job wall time (250ms before any job completed), clamped to
// [1s, 30s] so clients neither hammer nor stall.
func (s *Server) retryAfterLocked() time.Duration {
	per := 250 * time.Millisecond
	if completed := s.obs.completed.Value(); completed > 0 {
		per = time.Duration(s.obs.wallMSTotal.Value()/completed) * time.Millisecond
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	backlog := len(s.queue) + s.queueReserved + int(s.obs.running.Value())
	est := per * time.Duration(backlog+1) / time.Duration(workers)
	if est < time.Second {
		return time.Second
	}
	if est > 30*time.Second {
		return 30 * time.Second
	}
	return est
}

// Health is the readiness view served by /v1/healthz: a server is Ready
// while it would accept a zero-cost submission — the moment either
// admission bound is exhausted (or the server is closed) readiness drops,
// before clients start eating 429s.
type Health struct {
	OK               bool  `json:"ok"`
	Ready            bool  `json:"ready"`
	QueueDepth       int   `json:"queue_depth"`
	QueueCap         int   `json:"queue_cap"`
	Running          int   `json:"running"`
	InflightBytes    int64 `json:"inflight_bytes"`
	MaxInflightBytes int64 `json:"max_inflight_bytes"`
	// Durable reports whether a write-ahead job store backs this instance;
	// StoreSegments/StoreBytes describe its on-disk journal when so.
	Durable       bool  `json:"durable"`
	StoreSegments int   `json:"store_segments,omitempty"`
	StoreBytes    int64 `json:"store_bytes,omitempty"`
	// StoreDegraded carries the journal's last failed maintenance
	// (rotation/compaction). Appends — and therefore durability — still
	// work, but the journal is not being bounded; an operator should look
	// at the data dir's disk.
	StoreDegraded string `json:"store_degraded,omitempty"`
	// Degraded reports read-only degraded mode: journal appends are
	// FAILING (not merely unmaintained), Submit sheds everything but cache
	// hits with 503, and DegradedReason carries the triggering error. The
	// server probes the store and exits on its own once appends succeed.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Health snapshots the admission state.
func (s *Server) Health() Health {
	s.mu.Lock()
	h := Health{
		OK: true,
		Ready: !s.closed && s.degraded == "" &&
			len(s.queue)+s.queueReserved < s.cfg.QueueDepth &&
			(s.cfg.MaxInflightBytes <= 0 || s.inflightBytes < s.cfg.MaxInflightBytes),
		Degraded:         s.degraded != "",
		DegradedReason:   s.degraded,
		QueueDepth:       len(s.queue) + s.queueReserved,
		QueueCap:         s.cfg.QueueDepth,
		Running:          int(s.obs.running.Value()),
		InflightBytes:    s.inflightBytes,
		MaxInflightBytes: s.cfg.MaxInflightBytes,
		Durable:          s.store != nil,
	}
	s.mu.Unlock()
	if s.store != nil {
		h.StoreSegments, h.StoreBytes = s.store.Stats()
		if err := s.store.Err(); err != nil {
			h.StoreDegraded = err.Error()
		}
	}
	return h
}

// The sharded batch executor: /v1/batch used to submit its items serially
// on the handler goroutine, so one large batch serialized behind its own
// canonicalization work and monopolized admission. submitAll now stripes
// the items across up to batchMaxShards concurrent shards. Each shard
// draws on a per-shard byte budget — an equal split of MaxInflightBytes —
// so a single batch can saturate at most its fair share of the in-flight
// budget and concurrent batches (or single submissions) still get through.
// Outcomes stay index-aligned with the request; failures are per-item
// (partial failure is the normal case under load), with Retryable and
// RetryAfterMS set on shed items so clients know which half to resubmit.

// batchMaxShards caps batch fan-out regardless of worker-pool size.
const batchMaxShards = 8

// batchShards picks the shard count for a batch of n items.
func (s *Server) batchShards(n int) int {
	shards := s.cfg.Workers
	if shards > batchMaxShards {
		shards = batchMaxShards
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// submitAll fans the batch across shards and reports index-aligned
// outcomes.
func (s *Server) submitAll(reqs []distcolor.Request) BatchResponse {
	out := BatchResponse{Jobs: make([]BatchJob, len(reqs))}
	if len(reqs) == 0 {
		return out
	}
	shards := s.batchShards(len(reqs))
	var budget int64
	if s.cfg.MaxInflightBytes > 0 {
		budget = s.cfg.MaxInflightBytes / int64(shards)
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			var spent int64
			for i := sh; i < len(reqs); i += shards {
				cost := jobCost(&reqs[i])
				if budget > 0 && spent+cost > budget && spent > 0 {
					// Per-shard budget exhausted: shed locally without even
					// contending on admission — the batch already holds its
					// fair share of the in-flight budget.
					out.Jobs[i] = batchJobError(s.batchBudgetShed())
					continue
				}
				st, err := s.Submit(&reqs[i])
				if err != nil {
					out.Jobs[i] = batchJobError(err)
					continue
				}
				if !st.State.Terminal() { // cache hits cost nothing lasting
					spent += cost
				}
				out.Jobs[i] = BatchJob{ID: st.ID, State: st.State, CacheHit: st.CacheHit}
			}
		}(sh)
	}
	wg.Wait()
	return out
}

// batchBudgetShed accounts a per-shard-budget shed like any other shed —
// it must show in Metrics.Shed, which exists precisely to observe batch
// overload — and prices its retry hint from the live backlog instead of a
// constant.
func (s *Server) batchBudgetShed() *OverloadError {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.shed.Inc()
	return &OverloadError{Reason: "batch-budget", RetryAfter: s.retryAfterLocked()}
}

// batchJobError renders one failed submission outcome, marking shed items
// retryable with the server's backoff hint.
func batchJobError(err error) BatchJob {
	bj := BatchJob{Error: err.Error()}
	var ov *OverloadError
	if errors.As(err, &ov) {
		bj.Retryable = true
		bj.RetryAfterMS = ov.RetryAfter.Milliseconds()
	}
	return bj
}
