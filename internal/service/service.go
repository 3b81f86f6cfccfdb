// Package service is the colord serving layer: a long-running concurrent
// coloring service over the distcolor library. It accepts Requests (the
// stable codec of the root package), schedules them on a bounded work queue
// drained by a configurable worker pool, verifies every produced coloring,
// and memoizes results in a content-addressed cache keyed by the canonical
// graph hash plus the algorithm and its parameters — so an isomorphic
// resubmission of a served workload is answered by remapping the cached
// coloring through the canonical labeling instead of re-simulating.
//
// The service is durable and backpressured. With Config.DataDir set, every
// submission, state transition, and terminal result is journaled to a
// write-ahead job store (store.go) before it becomes externally visible, so
// a crash loses nothing: on restart the journal replays, terminal jobs keep
// serving their verified results, and non-terminal jobs are re-enqueued and
// re-run (exactly-once job identity, at-least-once execution). Admission
// control (admission.go) bounds both queue depth and the estimated bytes of
// in-flight work; submissions over either bound are shed with a typed
// overload error (HTTP 429 + Retry-After) and /v1/healthz turns not-ready,
// instead of the queue growing until the daemon OOMs.
//
// Observability is native: each job records the per-round progress of every
// constituent distributed execution (via the round hook that
// distcolor.Options.Observer attaches through sim.Instrumented), which the
// HTTP layer exposes as a streaming NDJSON round trace, and the server
// keeps aggregate counters (cache hits, rounds, messages, wall time) behind
// a metrics endpoint. The hook only traces. Cancellation is ctx-native: a
// canceled job's context aborts the simulation at the next round boundary
// (see sim.Exec).
//
// Lock ordering: s.mu may be taken while holding nothing or before j.mu;
// j.mu is never held while taking s.mu.
//
// See DESIGN.md §6 for the subsystem design and README.md for a quickstart.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	distcolor "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default: NumCPU).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; Submit
	// fails with ErrQueueFull beyond it (default 256).
	QueueDepth int
	// CacheEntries bounds the result cache (LRU, default 512; negative
	// disables caching).
	CacheEntries int
	// CacheMaxVertices / CacheMaxEdges bound the graphs the cache will
	// canonicalize (defaults 1024 / 65536; negative disables the bound).
	// Canonical labeling runs synchronously in Submit and costs real CPU on
	// highly symmetric graphs (~0.25s for a 1024-cycle, the worst case at
	// the default bound; WL-friendly graphs take about half a millisecond);
	// larger submissions simply bypass the cache (counted in
	// Metrics.CacheSkipped) instead of stalling intake.
	CacheMaxVertices int
	CacheMaxEdges    int
	// MaxVertices / MaxEdges reject oversized submissions (defaults 200k /
	// 2M; negative disables the check).
	MaxVertices int
	MaxEdges    int
	// MaxBodyBytes caps how much of an HTTP request body the JSON decoder
	// will read (default 64 MiB; negative disables), so the graph limits
	// protect memory during decoding rather than after it.
	MaxBodyBytes int64
	// MaxJobs bounds retained finished jobs; the oldest finished jobs are
	// forgotten beyond it (default 4096).
	MaxJobs int
	// TraceDepth bounds the per-job round-trace history (default 4096
	// events; when exceeded, the oldest half is dropped and the gap is
	// visible to readers via the first retained seq).
	TraceDepth int
	// Parallel runs every job on the goroutine-sharded sim.Parallel
	// engine even when the request did not ask for it. Results are
	// bit-identical either way (the engines are equivalent by
	// construction), so this is purely a wall-clock policy and does not
	// participate in cache keys.
	Parallel bool
	// DataDir enables the write-ahead job store: submissions, state
	// transitions, and terminal results are journaled under this directory
	// and replayed on the next start (terminal jobs keep their results,
	// interrupted jobs re-run). Empty leaves the service memory-only, as
	// before. The store assumes a single server instance per directory.
	DataDir string
	// SegmentBytes caps one journal segment before rotation (default 8 MiB).
	SegmentBytes int64
	// MaxInflightBytes bounds the estimated resident bytes of
	// accepted-but-unfinished jobs (default 256 MiB; negative disables the
	// bound). Submissions beyond it are shed with an *OverloadError. A
	// single request whose own estimate exceeds the bound is rejected
	// outright (not retryable) — it could never be admitted.
	MaxInflightBytes int64
	// Frozen starts the server with no workers, so accepted jobs queue
	// forever. For admission/overload tests and benchmarks only: it turns
	// the service into a pure front door with deterministic occupancy.
	Frozen bool
	// JobTimeout bounds every job's execution wall time, measured from
	// worker pickup; a run over it terminates in the distinct
	// "deadline_exceeded" state. A request's own deadline_ms tightens (never
	// loosens) this server default. Zero or negative leaves executions
	// unbounded.
	JobTimeout time.Duration
	// DegradedProbe is the minimum interval between write probes while the
	// server is degraded (journal unavailable); each probe that succeeds
	// exits degraded mode. Default 1s.
	DegradedProbe time.Duration
	// FS routes the job store's filesystem operations; nil means the real
	// os package (fault.OS). Tests inject a fault.Inject here to script
	// journal failures.
	FS fault.FS
	// Faults arms the server's named fault-injection points (see
	// DESIGN.md §12); nil — the production value — disables them at the
	// cost of one pointer load per site.
	Faults *fault.Points
	// Logger receives structured server events (recovery, sheds, job
	// terminals, journal failures) with job IDs attached. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheMaxVertices == 0 {
		c.CacheMaxVertices = 1024
	}
	if c.CacheMaxEdges == 0 {
		c.CacheMaxEdges = 65536
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 200_000
	}
	if c.MaxEdges == 0 {
		c.MaxEdges = 2_000_000
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.TraceDepth <= 0 {
		c.TraceDepth = 4096
	}
	if c.MaxInflightBytes == 0 {
		c.MaxInflightBytes = 256 << 20
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.DegradedProbe <= 0 {
		c.DegradedProbe = time.Second
	}
	return c
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	// StateDeadline marks a job whose execution exceeded its deadline (the
	// request's deadline_ms or the server's -job-timeout). Distinct from
	// failed so clients can tell "ran out of time" from "the run errored".
	StateDeadline State = "deadline_exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateDeadline
}

// TraceEvent is one executed simulator round of one of a job's constituent
// executions, in wire form.
type TraceEvent struct {
	// Seq numbers events within the job (monotone, including dropped ones).
	Seq int `json:"seq"`
	// Exec counts the constituent executions of the job so far; composed
	// algorithms run many executions, often on subtopologies.
	Exec int `json:"exec"`
	// Round is the 0-based round within the current execution.
	Round int `json:"round"`
	// N is the vertex count of the current execution's topology; Running is
	// how many of its machines are still running.
	N       int `json:"n"`
	Running int `json:"running"`
	// Messages is the cumulative message count of the current execution.
	Messages int64 `json:"messages"`
}

// JobStatus is the wire form of a job's externally visible state.
type JobStatus struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	CacheHit  bool   `json:"cache_hit"`
	Error     string `json:"error,omitempty"`
	// WallMS is the job's execution wall time (0 until it finished, and for
	// cache hits, which skip execution).
	WallMS int64 `json:"wall_ms"`
	// Rounds/Messages/Palette are filled once the job is done.
	Rounds   int   `json:"rounds,omitempty"`
	Messages int64 `json:"messages,omitempty"`
	Palette  int64 `json:"palette,omitempty"`
}

// Metrics is a snapshot of the server's aggregate counters.
type Metrics struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	// Shed counts submissions refused by admission control (queue depth or
	// in-flight bytes) — the 429s; Rejected counts invalid ones (400s).
	Shed int64 `json:"shed"`
	// Recovered counts jobs replayed from the write-ahead store at startup
	// (both re-enqueued and terminal ones).
	Recovered int64 `json:"recovered"`
	// Panicked counts jobs whose execution panicked (recovered into a typed
	// failure; also counted in Failed). DeadlineExceeded counts jobs
	// terminated by their execution deadline (its own terminal state, not
	// in Failed).
	Panicked         int64 `json:"panicked"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// Degraded is 1 while the journal is failing and the server sheds new
	// submissions (read-only degraded mode), else 0.
	Degraded int64 `json:"degraded"`
	// InflightBytes is the admission charge of accepted-but-unfinished
	// jobs; MaxInflightBytes is its bound (0 = unbounded).
	InflightBytes    int64 `json:"inflight_bytes"`
	MaxInflightBytes int64 `json:"max_inflight_bytes"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	// CacheBadHits counts canonical-hash collisions detected by post-remap
	// verification (served as misses).
	CacheBadHits int64 `json:"cache_bad_hits"`
	// CacheSkipped counts submissions that bypassed the cache because the
	// graph exceeded the canonicalization size bounds.
	CacheSkipped  int64 `json:"cache_skipped"`
	CacheEntries  int   `json:"cache_entries"`
	QueueDepth    int   `json:"queue_depth"`
	Running       int   `json:"running"`
	Workers       int   `json:"workers"`
	RoundsTotal   int64 `json:"rounds_total"`
	MessagesTotal int64 `json:"messages_total"`
	WallMSTotal   int64 `json:"wall_ms_total"`
	Jobs          int   `json:"jobs"`
	// BytesIn/BytesOut count HTTP body traffic; CodecJSON/CodecBinary/
	// CodecStream count submissions by wire encoding (see DESIGN.md §11).
	BytesIn     int64 `json:"bytes_in"`
	BytesOut    int64 `json:"bytes_out"`
	CodecJSON   int64 `json:"codec_json"`
	CodecBinary int64 `json:"codec_binary"`
	CodecStream int64 `json:"codec_stream"`
}

// ErrQueueFull matches (via errors.Is) the queue-depth load shed; retained
// for pre-admission-control callers. New code should match ErrOverloaded
// and inspect *OverloadError for the Retry-After hint.
var ErrQueueFull = errors.New("service: work queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: server closed")

// ErrNotFound is returned for unknown (or already-forgotten) job IDs.
var ErrNotFound = errors.New("service: no such job")

// errJobCanceled is the cancellation cause of a job's context; it surfaces
// from the simulator's ctx-abort error chain, so a canceled run is
// distinguishable from a failed one.
var errJobCanceled = errors.New("service: job canceled")

// errJobDeadline is the cancellation cause of a job whose execution
// deadline elapsed; it distinguishes deadline_exceeded from canceled.
var errJobDeadline = errors.New("service: job deadline exceeded")

// PanicError is the typed terminal error of a job whose execution
// panicked. The worker recovers the panic (quarantining the failure to the
// one job instead of killing the daemon) and fails the job with this error;
// Stack is the goroutine stack captured at the recovery point.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("service: job panicked: %v", e.Value)
}

// poisonAttempts is how many journaled execution starts mark a job as
// poisoned: recovery replay fails such a job instead of re-enqueueing it,
// so a deterministically panicking (or deadline-blowing) job cannot
// crash-loop or wedge the daemon across restarts.
const poisonAttempts = 2

// job is the unit of scheduled work.
type job struct {
	id         string
	req        *distcolor.Request
	g          *distcolor.Graph // built once at submission, reused by the worker
	traceDepth int

	// ctx governs the job's execution; cancel (with errJobCanceled as the
	// cause) aborts a running simulation at its next round boundary. The
	// context is created at submission so Cancel works in every state
	// without racing the worker.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// canon carries the submission-time canonicalization, reused to store
	// the result; nil when caching is disabled.
	canon *canonForm
	key   string

	// cost is the job's admission charge (jobCost at submission), released
	// at the terminal transition; 0 for jobs that were never charged
	// (cache hits, recovered terminal jobs).
	cost int64

	// attempts counts journaled execution starts, seeded from the recovery
	// record and incremented at worker pickup; only the worker goroutine
	// that owns the job touches it after publication.
	attempts int64

	// sobs points at the server's instruments for the hooks that fire off
	// the server lock (the round observer); nil in unit tests that build
	// bare jobs.
	sobs *serverObs

	mu         sync.Mutex
	cond       *sync.Cond          // broadcast on every state/trace change
	done       chan struct{}       // closed exactly once, on the terminal transition
	state      State               // guarded by mu
	err        string              // guarded by mu
	resp       *distcolor.Response // guarded by mu
	cacheHit   bool                // guarded by mu
	cancelReq  bool                // guarded by mu
	wallMS     int64               // guarded by mu
	trace      []TraceEvent        // guarded by mu
	traceStart int                 // guarded by mu; seq of trace[0] (earlier events were dropped)
	traceSeq   int                 // guarded by mu; next seq to assign
	lastExec   int                 // guarded by mu
	lastN      int                 // guarded by mu
	sawRound   bool                // guarded by mu

	// Lifecycle span tree (see DESIGN.md §9): offsets are µs since
	// spanBase. spans is nil for jobs recovered terminal from the journal;
	// mutations after the job is published happen under j.mu. The index
	// fields are -1 until the corresponding span starts.
	spanBase    time.Time
	spans       *obs.Trace
	spanRoot    int
	spanAdmit   int
	spanQueue   int
	spanExec    int
	lastRoundUS int64 // offset of the most recent observed round
}

// initSpans roots the job's span tree at base (the submission or recovery
// instant). Offsets derive from time.Since(base), so they ride the
// monotonic clock.
func (j *job) initSpans(base time.Time) {
	j.spanBase = base
	j.spans = obs.NewTrace(8)
	j.spanAdmit, j.spanQueue, j.spanExec = -1, -1, -1
	j.spanRoot = j.spans.Start("job", -1, 0)
}

func (j *job) sinceUS() int64 { return time.Since(j.spanBase).Microseconds() }

// finishLocked moves the job to a terminal state; j.mu must be held and the
// current state must be non-terminal.
func (j *job) finishLocked(st State, errMsg string) {
	j.state = st
	j.err = errMsg
	if j.cancel != nil {
		j.cancel(nil) // release the job context's resources
	}
	close(j.done)
	j.cond.Broadcast()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Algorithm: j.req.Algorithm,
		N:         j.req.Graph.N,
		M:         len(j.req.Graph.Edges),
		CacheHit:  j.cacheHit,
		Error:     j.err,
		WallMS:    j.wallMS,
	}
	if j.resp != nil {
		st.Algorithm = j.resp.Algorithm
		st.Rounds = j.resp.Stats.Rounds
		st.Messages = j.resp.Stats.Messages
		st.Palette = j.resp.Palette
	}
	return st
}

// Server is the concurrent coloring service.
type Server struct {
	cfg    Config
	cache  *resultCache
	store  *Store        // write-ahead job store; nil without Config.DataDir
	faults *fault.Points // injection points; nil in production

	mu            sync.Mutex
	queueCond     *sync.Cond      // signaled when queue gains work or the server closes
	closed        bool            // guarded by mu
	degraded      string          // guarded by mu; non-empty reason while the journal is failing
	lastProbe     time.Time       // guarded by mu; last store recovery probe while degraded
	nextID        int64           // guarded by mu
	jobs          map[string]*job // guarded by mu
	order         []string        // guarded by mu; submission order, for bounded retention
	queue         []*job          // guarded by mu; FIFO of not-yet-started jobs; canceled jobs are removed in place
	queueReserved int             // guarded by mu; admitted submissions journaling outside s.mu, not yet in queue
	inflightBytes int64           // guarded by mu; admission charge of accepted-but-unfinished jobs
	wg            sync.WaitGroup

	// obs holds every exported instrument (see obs.go); counters and the
	// running gauge are mutated only under s.mu, so Metrics() snapshots
	// them coherently with the queue/inflight state.
	obs   *serverObs
	log   *slog.Logger
	reqID atomic.Int64 // HTTP request-log ID source

	// deprecatedOnce rate-limits the legacy-shorthand-fields warning to one
	// log line per process; the Deprecation response header fires every time.
	deprecatedOnce sync.Once
}

// NewServer opens the job store (when Config.DataDir is set), replays and
// re-enqueues any work a previous process left non-terminal, and starts the
// worker pool. The only error paths are store ones; a memory-only config
// never fails.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		faults: cfg.Faults,
		jobs:   make(map[string]*job),
		obs:    newServerObs(),
		log:    cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.queueCond = sync.NewCond(&s.mu)
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries)
	}
	if cfg.DataDir != "" {
		store, recovered, err := OpenStoreFS(cfg.DataDir, cfg.SegmentBytes, cfg.FS)
		if err != nil {
			return nil, err
		}
		s.store = store
		if err := s.recover(recovered); err != nil {
			store.Close()
			return nil, err
		}
		s.log.Info("job store recovered", "dir", cfg.DataDir, "jobs", s.obs.recovered.Value())
	}
	s.registerDerived()
	if !cfg.Frozen {
		for i := 0; i < cfg.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return s, nil
}

// recover rebuilds the job table from the replayed journal: terminal jobs
// are materialized with their persisted outcome (results keep serving
// across restarts), non-terminal jobs — queued or running at the crash —
// are rebuilt and re-enqueued. Recovery bypasses admission (the work was
// admitted before the crash) but charges the in-flight budget, so fresh
// submissions shed until the backlog drains. Job IDs resume past the
// journal's maximum: an ID is never reused, so restarting cannot duplicate
// or alias a job.
func (s *Server) recover(recs []distcolor.JobRecord) error {
	// Recovery runs before the worker pool exists, but it mutates the same
	// guarded state the workers will; holding s.mu keeps the lock invariant
	// uniform (and costs one uncontended acquisition at startup).
	s.mu.Lock()
	defer s.mu.Unlock()
	// Resume ID assignment past everything the journal has EVER seen — not
	// just the recovered table: a job dropped by retention (forgotten
	// marker) is gone from the table but its ID must stay burned, or a
	// client still holding it would silently read a different job.
	s.nextID = s.store.MaxJobID()
	for i := range recs {
		rec := &recs[i]
		if n := jobIDNum(rec.ID); n > s.nextID {
			s.nextID = n
		}
		if rec.Request == nil {
			// A journal prefix can hold transition entries whose submission
			// entry was forgotten by compaction mid-crash; nothing runnable
			// or servable survives without the request.
			continue
		}
		j := &job{
			id:         rec.ID,
			req:        rec.Request,
			traceDepth: s.cfg.TraceDepth,
			done:       make(chan struct{}),
			cacheHit:   rec.CacheHit,
			wallMS:     rec.WallMS,
		}
		j.cond = sync.NewCond(&j.mu)
		//distcolor:ignore ctxfirst recovered jobs outlive any request; Close and /cancel cancel via j.cancel
		j.ctx, j.cancel = context.WithCancelCause(context.Background())
		st := State(rec.State)
		if st.Terminal() {
			j.state = st
			j.err = rec.Error
			j.resp = rec.Response
			j.cancel(nil)
			close(j.done)
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			s.obs.recovered.Inc()
			continue
		}
		// Poison quarantine: a job that already journaled poisonAttempts
		// execution starts without ever reaching a terminal state has taken
		// down (or wedged) as many processes. Replaying it again would
		// crash-loop the daemon, so it turns terminal-failed instead.
		if rec.Attempts >= poisonAttempts {
			j.state = StateFailed
			j.err = fmt.Sprintf("service: job poisoned: %d execution attempts without a terminal state", rec.Attempts)
			j.cancel(nil)
			close(j.done)
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			s.obs.recovered.Inc()
			s.log.Warn("poisoned job quarantined", "job", j.id, "attempts", rec.Attempts)
			if aerr := s.store.Append(distcolor.JobRecord{ID: j.id, State: string(StateFailed), Error: j.err}, true); aerr != nil {
				return aerr
			}
			continue
		}
		// Queued or running at the crash: rebuild and re-enqueue. The graph
		// was validated at original submission; a request that no longer
		// builds (schema drift across versions) turns terminal-failed
		// rather than poisoning the queue.
		g, err := rec.Request.Graph.Build()
		if err == nil {
			err = rec.Request.Validate()
		}
		if err != nil {
			j.state = StateFailed
			j.err = err.Error()
			j.cancel(nil)
			close(j.done)
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			s.obs.recovered.Inc()
			if aerr := s.store.Append(distcolor.JobRecord{ID: j.id, State: string(StateFailed), Error: j.err}, true); aerr != nil {
				return aerr
			}
			continue
		}
		j.g = g
		j.state = StateQueued
		j.cost = jobCost(rec.Request)
		j.attempts = rec.Attempts
		j.sobs = s.obs
		// Recovered jobs re-enter at the queue stage: no admit span (the
		// admission happened in a previous process), offsets re-based at
		// recovery time.
		j.initSpans(time.Now())
		j.spanQueue = j.spans.Start(stageQueue, j.spanRoot, 0)
		if s.cache != nil &&
			(s.cfg.CacheMaxVertices < 0 || g.N() <= s.cfg.CacheMaxVertices) &&
			(s.cfg.CacheMaxEdges < 0 || g.M() <= s.cfg.CacheMaxEdges) {
			canon, err := canonicalize(g, rec.Request)
			if err == nil { // a bad cover was journaled by an older build; run uncached
				j.canon = canon
				j.key = cacheKey(canon, rec.Request)
			}
		}
		s.inflightBytes += j.cost
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue = append(s.queue, j)
		s.obs.recovered.Inc()
	}
	return nil
}

// Close stops accepting submissions, lets queued and running jobs finish,
// waits for the workers to exit, and seals the job store.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.queueCond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.store != nil {
		s.store.Close()
	}
}

// Submit validates, cache-checks, admits, journals, and (on a miss)
// enqueues a request. On a cache hit the returned job is already done and
// carries the remapped, re-verified coloring. A submission over the
// admission bounds is shed with an *OverloadError carrying a Retry-After
// estimate; with a job store configured, an accepted submission is fsync'd
// to the journal before Submit returns, so an ID handed to a client
// survives any crash.
func (s *Server) Submit(req *distcolor.Request) (JobStatus, error) {
	return s.submit(req, -1)
}

// submit is Submit's engine. pre < 0 is the buffered path: the request is
// admitted here, in one decision. pre >= 0 is the chunked-ingest handoff
// from SubmitStream: the request was already admitted incrementally — pre
// bytes are charged against the in-flight budget and one queue reservation
// is held — so admission is skipped and every rejection path must return
// the reservation and charge (releaseStream) before erroring.
func (s *Server) submit(req *distcolor.Request, pre int64) (JobStatus, error) {
	begin := time.Now() // span base: every lifecycle offset is µs since here
	preAdmitted := pre >= 0
	reject := func(err error) (JobStatus, error) {
		if preAdmitted {
			s.releaseStream(pre)
		}
		s.countRejected()
		return JobStatus{}, err
	}
	if err := req.Validate(); err != nil {
		return reject(err)
	}
	if err := s.faults.Hit("service.admit"); err != nil { // injection point; nil Points = 1 pointer load
		return reject(err)
	}
	// Resolve degraded state once, up front: the probe (and its fsync) must
	// not run under s.mu, and the answer decides both branches below — a
	// cache hit is served memory-only, a miss is shed before admission.
	degraded := ""
	if s.store != nil {
		degraded = s.degradedReason()
	}
	if s.cfg.MaxVertices > 0 && req.Graph.N > s.cfg.MaxVertices {
		return reject(fmt.Errorf("service: graph has %d vertices, limit %d", req.Graph.N, s.cfg.MaxVertices))
	}
	if s.cfg.MaxEdges > 0 && len(req.Graph.Edges) > s.cfg.MaxEdges {
		return reject(fmt.Errorf("service: graph has %d edges, limit %d", len(req.Graph.Edges), s.cfg.MaxEdges))
	}
	cost := jobCost(req)
	if !preAdmitted && s.cfg.MaxInflightBytes > 0 && cost > s.cfg.MaxInflightBytes {
		// A buffered request whose own estimate exceeds the whole budget can
		// never be admitted in one decision — but it CAN arrive via chunked
		// binary ingest, which admits per chunk. Shed with a 429 pointing
		// there rather than rejecting outright.
		s.mu.Lock()
		s.obs.shed.Inc()
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		s.log.Warn("submission shed", "reason", "inflight-bytes", "retry_after", ra)
		return JobStatus{}, &OverloadError{Reason: "inflight-bytes", RetryAfter: ra}
	}
	// An out-of-range clique-cover vertex could only fail at execution, and
	// hashing it would alias a valid cover's cache key. Reject it up front —
	// unconditionally, not just on the cacheable path, so the same invalid
	// request is a 400 regardless of the server's cache configuration.
	if err := validateCoverRange(req); err != nil {
		return reject(err)
	}
	g, err := req.Graph.Build()
	if err != nil {
		return reject(err)
	}

	j := &job{req: req, g: g, state: StateQueued, traceDepth: s.cfg.TraceDepth, done: make(chan struct{}), sobs: s.obs}
	j.cond = sync.NewCond(&j.mu)
	//distcolor:ignore ctxfirst a job outlives the submitting request; Close and /cancel cancel via j.cancel
	j.ctx, j.cancel = context.WithCancelCause(context.Background())
	j.initSpans(begin)
	j.spanAdmit = j.spans.Start(stageAdmit, j.spanRoot, 0)

	var hit *distcolor.Response
	cacheable := s.cache != nil &&
		(s.cfg.CacheMaxVertices < 0 || g.N() <= s.cfg.CacheMaxVertices) &&
		(s.cfg.CacheMaxEdges < 0 || g.M() <= s.cfg.CacheMaxEdges)
	if cacheable {
		canon, err := canonicalize(g, req)
		if err != nil {
			return reject(err)
		}
		j.canon = canon
		j.key = cacheKey(j.canon, req)
		var bad bool
		hit, bad = s.cache.load(j.key, g, j.canon)
		if bad {
			s.mu.Lock()
			s.obs.cacheBadHits.Inc()
			s.mu.Unlock()
		}
	}

	s.mu.Lock()
	if s.closed {
		if preAdmitted {
			s.queueReserved--
			s.releaseLocked(pre)
		}
		s.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	if hit != nil {
		if preAdmitted {
			// The stream's incremental charge is no longer needed: the hit
			// serves from cache without ever entering the queue.
			s.queueReserved--
			s.releaseLocked(pre)
		}
		// Served from cache: load re-verified the remapped coloring against
		// this submission's graph.
		s.obs.cacheHits.Inc()
		s.obs.submitted.Inc()
		s.obs.completed.Inc()
		j.state = StateDone
		j.resp = hit
		j.cacheHit = true
		j.cancel(nil)
		close(j.done)
		// Close the span tree before the job becomes findable: a cache hit
		// is admit followed by an instantaneous serve, no queue/execute.
		t := j.sinceUS()
		j.spans.End(j.spanAdmit, t)
		sv := j.spans.Start(stageServe, j.spanRoot, t)
		j.spans.End(sv, t)
		j.spans.End(j.spanRoot, t)
		evicted := s.register(j)
		s.mu.Unlock()
		s.obs.observeStage(stageAdmit, t)
		s.journalForgotten(evicted)
		// One condensed journal entry: submitted and done in the same
		// instant. Fsync'd and checked like the miss path's — the
		// durability contract is that any ID handed to a client survives a
		// crash, cache hit or not. While degraded the entry is skipped and
		// the hit serves memory-only: the result is correct and verified,
		// the caller gets it now, and the one documented durability gap is
		// that this ID will not survive a restart (DESIGN.md §12).
		if s.store != nil && degraded == "" {
			if err := s.journal(distcolor.JobRecord{
				ID: j.id, State: string(StateDone), Request: req, Response: hit, CacheHit: true,
			}, true); err != nil {
				s.log.Error("journal append failed, cache hit withdrawn", "job", j.id, "err", err)
				s.withdrawHit(j)
				return JobStatus{}, err
			}
		}
		s.log.Debug("job served from cache", "job", j.id)
		return j.status(), nil
	}
	if degraded != "" {
		// Read-only shed: new work cannot be made durable, so it is refused
		// with a typed 503 — distinct from overload, because retrying sooner
		// will not help until the journal heals.
		if preAdmitted {
			s.queueReserved--
			s.releaseLocked(pre)
		}
		s.obs.shed.Inc()
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		s.log.Warn("submission shed", "reason", "degraded", "err", degraded)
		return JobStatus{}, &DegradedError{Reason: degraded, RetryAfter: ra}
	}
	if preAdmitted {
		// Chunked ingest admitted this job while reading it; the held charge
		// (and the queue reservation taken with the first chunk) transfer to
		// the job as-is.
		j.cost = pre
	} else {
		if err := s.admitLocked(cost); err != nil {
			s.mu.Unlock()
			var ov *OverloadError
			if errors.As(err, &ov) {
				s.log.Warn("submission shed", "reason", ov.Reason, "retry_after", ov.RetryAfter)
			}
			return JobStatus{}, err
		}
		j.cost = cost
	}
	evicted := s.register(j) // the job is visible (Status finds it) but not yet runnable
	s.mu.Unlock()
	s.journalForgotten(evicted)

	if s.store != nil {
		// Durability point: the submission entry is fsync'd before the job
		// becomes runnable. It happens outside s.mu — an fsync per submit
		// under the server lock would serialize every submission and stall
		// the read endpoints — which is safe because the job is not in the
		// queue yet: no worker can run work whose entry is not durable. On
		// journal failure the job is withdrawn (terminal-failed for anyone
		// who already saw it, then dropped); accepting unjournaled work
		// would silently demote the durability contract.
		if err := s.journal(distcolor.JobRecord{ID: j.id, State: string(StateQueued), Request: req}, true); err != nil {
			s.log.Error("journal append failed, submission withdrawn", "job", j.id, "err", err)
			s.withdraw(j, StateFailed, err.Error())
			// Best-effort neutralizer: if the failure was in the fsync (the
			// bytes may still reach disk), a terminal entry stops a restart
			// from resurrecting work whose submission call failed.
			_ = s.store.Append(distcolor.JobRecord{ID: j.id, State: string(StateFailed), Error: err.Error()}, false)
			return JobStatus{}, err
		}
	}

	s.mu.Lock()
	if s.closed {
		// Close raced the journal write; the workers may already be gone,
		// so the job must not enter the queue. The journaled submission is
		// neutralized with a terminal entry (otherwise a restart would
		// resurrect work whose submission call failed).
		s.mu.Unlock()
		s.withdraw(j, StateCanceled, ErrClosed.Error())
		if s.store != nil {
			_ = s.store.Append(distcolor.JobRecord{ID: j.id, State: string(StateCanceled), Error: ErrClosed.Error()}, true)
		}
		return JobStatus{}, ErrClosed
	}
	s.queueReserved-- // the reservation becomes a real queue entry
	// Admit ends (journal fsync included) and the queue wait begins. The
	// job is already findable, so span mutations happen under j.mu; taking
	// j.mu inside s.mu follows the lock order, and doing it before the
	// queue append means no worker has the job yet.
	j.mu.Lock()
	admitUS := j.sinceUS()
	j.spans.End(j.spanAdmit, admitUS)
	j.spanQueue = j.spans.Start(stageQueue, j.spanRoot, admitUS)
	j.mu.Unlock()
	s.queue = append(s.queue, j)
	s.queueCond.Signal()
	switch {
	case cacheable:
		s.obs.cacheMisses.Inc()
	case s.cache != nil:
		s.obs.cacheSkipped.Inc()
	}
	s.obs.submitted.Inc()
	s.mu.Unlock()
	s.obs.observeStage(stageAdmit, admitUS)
	return j.status(), nil
}

// withdrawHit backs a cache-hit job out after its journal entry could not
// be made durable: the submission errors back to the caller, so the job
// must not remain findable (a restart would 404 an ID the caller was never
// successfully given) and the hit counters roll back. The job object stays
// terminal-done for any concurrent Status/Wait holder.
func (s *Server) withdrawHit(j *job) {
	s.mu.Lock()
	s.obs.cacheHits.Add(-1)
	s.obs.submitted.Add(-1)
	s.obs.completed.Add(-1)
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// withdraw backs an admitted-but-never-enqueued job out of the server: it
// turns terminal (so Status/Wait callers that saw it resolve) and releases
// its registration, queue reservation, and admission charge.
func (s *Server) withdraw(j *job, st State, errMsg string) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.finishLocked(st, errMsg)
	}
	j.mu.Unlock()
	s.mu.Lock()
	s.queueReserved--
	s.releaseLocked(j.cost)
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// register assigns an ID and stores the job; the caller holds s.mu. It
// returns the IDs its bounded retention evicted, which the caller journals
// as forgotten markers AFTER releasing s.mu — an append here can trigger
// segment rotation and full-journal compaction, far too much disk work to
// run under the global lock.
func (s *Server) register(j *job) (evicted []string) {
	s.nextID++
	j.id = "j" + strconv.FormatInt(s.nextID, 10)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Bounded retention: forget the oldest *finished* jobs beyond MaxJobs.
	for len(s.jobs) > s.cfg.MaxJobs {
		removed := false
		for i, id := range s.order {
			old, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				removed = true
				break
			}
			old.mu.Lock()
			terminal := old.state.Terminal()
			old.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = append(evicted, id)
				removed = true
				break
			}
		}
		if !removed {
			break // everything is in flight; retain over MaxJobs
		}
	}
	return evicted
}

// journalForgotten writes retention markers for evicted jobs: replay must
// not resurrect a job the bounded retention already forgot. Unsynced —
// losing one merely re-retains the job for one more cycle.
func (s *Server) journalForgotten(evicted []string) {
	if s.store == nil {
		return
	}
	for _, id := range evicted {
		_ = s.journal(distcolor.JobRecord{ID: id, State: storeStateForgotten}, false)
	}
}

// journal appends one record to the job store (no-op without one), flipping
// the server into degraded mode when the append fails. Every store write on
// a served path goes through here, so a sick disk is noticed at the first
// failing append, not when an operator reads the log.
func (s *Server) journal(rec distcolor.JobRecord, sync bool) error {
	if s.store == nil {
		return nil
	}
	err := s.store.Append(rec, sync)
	if err != nil {
		s.enterDegraded(err)
	}
	return err
}

// enterDegraded flips the server read-only: Submit sheds cache misses with
// a *DegradedError (503) until a probe succeeds, while Status/Result/Trace/
// Cancel and memory-only cache hits keep serving. The rationale: accepting
// work the journal cannot record would silently demote the durability
// contract, but refusing reads would turn a disk hiccup into a full outage.
func (s *Server) enterDegraded(err error) {
	s.mu.Lock()
	entered := s.degraded == ""
	s.degraded = err.Error()
	s.mu.Unlock()
	if entered {
		s.log.Error("journal failing, entering degraded mode", "err", err)
	}
}

// degradedReason returns the current degraded reason ("" when healthy). At
// most once per Config.DegradedProbe it probes the store with a real synced
// append (Store.Probe) — outside s.mu, fsync under the server lock would
// stall the read endpoints — and a successful probe exits degraded mode:
// the self-heal path after a disk recovers.
func (s *Server) degradedReason() string {
	s.mu.Lock()
	reason := s.degraded
	probe := reason != "" && time.Since(s.lastProbe) >= s.cfg.DegradedProbe
	if probe {
		s.lastProbe = time.Now()
	}
	s.mu.Unlock()
	if !probe {
		return reason
	}
	if err := s.store.Probe(); err != nil {
		s.mu.Lock()
		s.degraded = err.Error()
		reason = s.degraded
		s.mu.Unlock()
		return reason
	}
	s.mu.Lock()
	s.degraded = ""
	s.mu.Unlock()
	s.log.Info("journal recovered, leaving degraded mode")
	return ""
}

func (s *Server) countRejected() {
	s.mu.Lock()
	s.obs.rejected.Inc()
	s.mu.Unlock()
}

// Status returns a job's current status.
func (s *Server) Status(id string) (JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

func (s *Server) job(id string) (*job, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Result returns the response of a done job. The response is nil while the
// job has not (or not successfully) finished; the status tells why.
func (s *Server) Result(id string) (*distcolor.Response, JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, JobStatus{}, err
	}
	j.mu.Lock()
	resp := j.resp
	j.mu.Unlock()
	return resp, j.status(), nil
}

// Cancel requests cancellation: a queued job is removed from the queue
// (freeing its slot immediately) and never runs; a running job's context
// is canceled, aborting the simulation at its next round boundary.
func (s *Server) Cancel(id string) (JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	// Pull the job out of the queue first (s.mu before j.mu): once removed,
	// no worker can pick it up, so this caller owns the terminal transition.
	// s.mu stays held until the job is counted, before it turns terminal.
	s.mu.Lock()
	removed := false
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			removed = true
			break
		}
	}
	j.mu.Lock()
	finished := false
	if !j.state.Terminal() {
		j.cancelReq = true
		j.cancel(errJobCanceled)
		if removed {
			s.obs.canceled.Inc()
			finished = true
		}
	}
	s.mu.Unlock()
	if finished {
		j.finishLocked(StateCanceled, errJobCanceled.Error())
		if j.spans != nil {
			t := j.sinceUS()
			j.spans.End(j.spanQueue, t)
			j.spans.End(j.spanRoot, t)
		}
	}
	j.mu.Unlock()
	if finished {
		s.log.Info("job canceled while queued", "job", j.id)
		s.mu.Lock()
		s.releaseLocked(j.cost)
		s.mu.Unlock()
		_ = s.journal(distcolor.JobRecord{ID: j.id, State: string(StateCanceled), Error: errJobCanceled.Error()}, true)
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the job's then-current status; the caller checks ctx.Err() to
// tell a timeout from a terminal state.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return j.status(), nil
}

// Trace copies the job's recorded round-trace events with seq ≥ afterSeq,
// and reports the job's current state and the seq of the first retained
// event (events before it were dropped by the bounded history).
func (s *Server) Trace(id string, afterSeq int) ([]TraceEvent, State, int, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, "", 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []TraceEvent
	for _, ev := range j.trace {
		if ev.Seq >= afterSeq {
			out = append(out, ev)
		}
	}
	return out, j.state, j.traceStart, nil
}

// WaitTrace blocks until the job has trace events with seq ≥ afterSeq, is
// terminal, or ctx is done, then behaves like Trace (the caller checks
// ctx.Err() to distinguish the last case). The context lets a streaming
// reader whose client disconnected stop waiting on a slow job.
func (s *Server) WaitTrace(ctx context.Context, id string, afterSeq int) ([]TraceEvent, State, int, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, "", 0, err
	}
	// cond.Wait cannot watch a channel; poke the waiters when ctx ends.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	for !j.state.Terminal() && j.traceSeq <= afterSeq && ctx.Err() == nil {
		j.cond.Wait()
	}
	j.mu.Unlock()
	return s.Trace(id, afterSeq)
}

// Metrics snapshots the aggregate counters. Every instrument it reads is
// mutated only under s.mu, so the snapshot is coherent: no field can show a
// state transition another field has not seen yet.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Submitted:        s.obs.submitted.Value(),
		Completed:        s.obs.completed.Value(),
		Failed:           s.obs.failed.Value(),
		Canceled:         s.obs.canceled.Value(),
		Rejected:         s.obs.rejected.Value(),
		Shed:             s.obs.shed.Value(),
		Recovered:        s.obs.recovered.Value(),
		Panicked:         s.obs.panicked.Value(),
		DeadlineExceeded: s.obs.deadlineExceeded.Value(),
		InflightBytes:    s.inflightBytes,
		CacheHits:        s.obs.cacheHits.Value(),
		CacheMisses:      s.obs.cacheMisses.Value(),
		CacheBadHits:     s.obs.cacheBadHits.Value(),
		CacheSkipped:     s.obs.cacheSkipped.Value(),
		QueueDepth:       len(s.queue) + s.queueReserved,
		Running:          int(s.obs.running.Value()),
		Workers:          s.cfg.Workers,
		RoundsTotal:      s.obs.roundsTotal.Value(),
		MessagesTotal:    s.obs.messagesTotal.Value(),
		WallMSTotal:      s.obs.wallMSTotal.Value(),
		Jobs:             len(s.jobs),
		BytesIn:          s.obs.bytesIn.Value(),
		BytesOut:         s.obs.bytesOut.Value(),
		CodecJSON:        s.obs.codecJSON.Value(),
		CodecBinary:      s.obs.codecBinary.Value(),
		CodecStream:      s.obs.codecStream.Value(),
	}
	if s.degraded != "" {
		m.Degraded = 1
	}
	if s.cfg.MaxInflightBytes > 0 {
		m.MaxInflightBytes = s.cfg.MaxInflightBytes
	}
	if s.cache != nil {
		m.CacheEntries = s.cache.len()
	}
	return m
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.queueCond.Wait()
		}
		if len(s.queue) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	queueUS := int64(-1)
	if j.spans != nil {
		t := j.sinceUS()
		j.spans.End(j.spanQueue, t)
		if j.spanQueue >= 0 {
			queueUS = j.spans.Spans()[j.spanQueue].DurUS
		}
		j.spanExec = j.spans.Start(stageExecute, j.spanRoot, t)
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	s.obs.observeStage(stageQueue, queueUS)

	s.mu.Lock()
	s.obs.running.Add(1)
	s.mu.Unlock()
	j.attempts++
	// Unsynced on the first attempt: losing a "running" entry replays the
	// job as queued, which merely re-runs it — the at-least-once side of
	// recovery. The attempt that would poison the job on the NEXT replay is
	// fsync'd: quarantine must survive the very crash it exists to record.
	// (The soft spot is one lost unsynced first attempt, which buys a
	// poisoned job exactly one extra run — never an unbounded loop.)
	_ = s.journal(distcolor.JobRecord{ID: j.id, State: string(StateRunning), Attempts: j.attempts}, j.attempts >= poisonAttempts)

	req := j.req
	if s.cfg.Parallel && !req.Parallel {
		cp := *req
		cp.Parallel = true
		req = &cp
	}
	// The execution context layers the deadline over the job's cancel
	// context: the request's deadline_ms tightens the server's JobTimeout
	// default, and the typed cause tells the terminal switch "out of time"
	// apart from "canceled".
	ctx := j.ctx
	timeout := s.cfg.JobTimeout
	if d := req.DeadlineMS; d > 0 {
		if t := time.Duration(d) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	var cancelDeadline context.CancelFunc
	if timeout > 0 {
		ctx, cancelDeadline = context.WithTimeoutCause(j.ctx, timeout, errJobDeadline)
	}
	start := time.Now()
	resp, err := s.execute(ctx, j, req)
	if cancelDeadline != nil {
		cancelDeadline()
	}
	wall := time.Since(start).Milliseconds()
	var execRetUS int64
	if j.spans != nil { // spanBase is immutable once the job is published
		execRetUS = j.sinceUS()
	}

	// Store into the cache before the job turns terminal: a waiter that
	// resubmits the identical workload the instant Wait returns must hit.
	if err == nil && s.cache != nil && j.canon != nil {
		s.cache.store(j.key, j.canon, resp)
	}

	// The outcome is counted before the job turns terminal, so Metrics
	// read the instant Wait returns already includes it. Classifying it
	// reads j.cancelReq, so s.mu and j.mu are held together, taken in the
	// server's order (s.mu first, as Cancel and register do); s.mu is
	// dropped before the done channel closes.
	s.mu.Lock()
	j.mu.Lock()
	j.wallMS = wall
	// A canceled job's error chain carries the context cancellation (the
	// simulator wraps context.Cause, i.e. errJobCanceled). An explicit
	// Cancel wins over every other outcome; a panic is a plain failure with
	// a typed error; a deadline gets its own terminal state.
	canceled := err != nil && (errors.Is(err, errJobCanceled) || errors.Is(err, context.Canceled) || j.cancelReq)
	var pe *PanicError
	panicked := !canceled && errors.As(err, &pe)
	deadlined := err != nil && !canceled && !panicked &&
		(errors.Is(err, errJobDeadline) || errors.Is(err, context.DeadlineExceeded))
	rec := distcolor.JobRecord{ID: j.id, WallMS: wall}
	switch {
	case canceled:
		s.obs.canceled.Inc()
		rec.State, rec.Error = string(StateCanceled), errJobCanceled.Error()
	case panicked:
		s.obs.failed.Inc()
		s.obs.panicked.Inc()
		rec.State, rec.Error = string(StateFailed), pe.Error()
	case deadlined:
		s.obs.deadlineExceeded.Inc()
		rec.State, rec.Error = string(StateDeadline), errJobDeadline.Error()
	case err != nil:
		s.obs.failed.Inc()
		rec.State, rec.Error = string(StateFailed), err.Error()
	default:
		s.obs.completed.Inc()
		s.obs.roundsTotal.Add(int64(resp.Stats.Rounds))
		s.obs.messagesTotal.Add(resp.Stats.Messages)
		s.obs.wallMSTotal.Add(wall)
		j.resp = resp
		rec.State, rec.Response = string(StateDone), resp
	}
	s.obs.running.Add(-1)
	s.mu.Unlock()
	j.finishLocked(State(rec.State), rec.Error)
	// Close the span tree in the same critical section as the terminal
	// transition, so a trace streamer woken by it always reads a finished
	// tree. Execute ends at the last observed round; the tail up to
	// ExecuteOn's return is the in-run verification; serve covers result
	// publication (cache store + terminal bookkeeping). The terminal WAL
	// fsync below is deliberately outside the tree — including it would
	// reopen the race with streaming readers.
	execUS, verifyUS, serveUS := int64(-1), int64(-1), int64(-1)
	if j.spans != nil {
		execEnd := execRetUS
		if j.sawRound && j.lastRoundUS > 0 && j.lastRoundUS < execEnd {
			execEnd = j.lastRoundUS
		}
		j.spans.End(j.spanExec, execEnd)
		if j.spanExec >= 0 {
			execUS = j.spans.Spans()[j.spanExec].DurUS
		}
		if panicked {
			// Zero-length marker at the recovery instant, so a trace reader
			// sees WHERE in the lifecycle the panic surfaced; the stack goes
			// to the structured log below.
			pi := j.spans.Start("panic", j.spanRoot, execRetUS)
			j.spans.End(pi, execRetUS)
		}
		if rec.State == string(StateDone) {
			vi := j.spans.Start(stageVerify, j.spanRoot, execEnd)
			j.spans.End(vi, execRetUS)
			verifyUS = execRetUS - execEnd
		}
		now := j.sinceUS()
		si := j.spans.Start(stageServe, j.spanRoot, execRetUS)
		j.spans.End(si, now)
		serveUS = now - execRetUS
		j.spans.End(j.spanRoot, now)
	}
	j.mu.Unlock()
	s.obs.observeStage(stageExecute, execUS)
	s.obs.observeStage(stageVerify, verifyUS)
	s.obs.observeStage(stageServe, serveUS)
	// The terminal entry is fsync'd: it is what lets a restart serve this
	// result instead of re-running the job. A failure cannot un-finish the
	// job — the in-memory result keeps serving — but it does flip the
	// server degraded (via journal), since outcomes are no longer durable.
	if aerr := s.journal(rec, true); aerr != nil {
		s.log.Error("terminal journal append failed", "job", j.id, "err", aerr)
	}
	if panicked {
		s.log.Error("job panicked, failure quarantined to the job",
			"job", j.id, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
	s.log.Info("job finished", "job", j.id, "state", rec.State, "wall_ms", wall)

	s.mu.Lock()
	s.releaseLocked(j.cost)
	s.mu.Unlock()
}

// execute runs one job's simulation, converting an engine panic into a
// typed *PanicError: the panic fails that one job while the worker — and
// every queued job behind it — survives. Before this recovery existed, a
// panicking request took down the whole daemon.
func (s *Server) execute(ctx context.Context, j *job, req *distcolor.Request) (resp *distcolor.Response, err error) {
	defer func() {
		//distcolor:recover quarantine a panicking job to a typed failure instead of killing the worker pool
		if r := recover(); r != nil {
			resp, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := s.faults.Hit("worker.execute"); ferr != nil { // injection point (error, panic, or delay)
		return nil, ferr
	}
	return distcolor.ExecuteOn(ctx, req, j.g, distcolor.Options{Observer: j.observe})
}

// observe is the job's sim round hook: it records the bounded trace
// history (cancellation is ctx-native now and no longer flows through the
// observer). A new execution is detected by its round counter restarting
// at 0.
func (j *job) observe(ev distcolor.RoundEvent) {
	if j.sobs != nil {
		j.sobs.roundMaxBits.Observe(ev.RoundMaxBits)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Round == 0 || !j.sawRound || ev.N != j.lastN {
		j.lastExec++
	}
	j.sawRound = true
	j.lastN = ev.N
	if j.spans != nil {
		j.lastRoundUS = j.sinceUS()
	}
	j.trace = append(j.trace, TraceEvent{
		Seq:      j.traceSeq,
		Exec:     j.lastExec,
		Round:    ev.Round,
		N:        ev.N,
		Running:  ev.Running,
		Messages: ev.Stats.Messages,
	})
	j.traceSeq++
	// Bounded history: drop the oldest half when over depth, so streaming
	// readers that fell behind see a gap, not unbounded memory.
	if len(j.trace) > j.traceDepth {
		keep := j.traceDepth / 2
		if keep < 1 {
			keep = 1
		}
		drop := len(j.trace) - keep
		j.traceStart = j.trace[drop].Seq
		j.trace = append(j.trace[:0], j.trace[drop:]...)
	}
	j.cond.Broadcast()
}

// Algorithms re-exports the registry's algorithm name list.
func Algorithms() []string { return distcolor.Algorithms() }
