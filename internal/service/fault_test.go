package service

// Feature tests for the hardened failure domains: panic quarantine, per-job
// execution deadlines, poison quarantine on recovery, degraded mode, and the
// ctx-first Wait. Each scenario is driven by the deterministic fault layer
// (internal/fault) rather than by timing races, and each pins the admission
// ledger: every new terminal path must return its queue slot and byte charge.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	distcolor "repro"
	"repro/internal/fault"
)

// TestPanicQuarantineKeepsDaemonAlive is the acceptance test for panic
// containment: the first job's execution panics (injected), the job fails
// with the typed error, and the SAME single worker then runs the next job to
// completion — before the quarantine existed, the panic killed the process.
func TestPanicQuarantineKeepsDaemonAlive(t *testing.T) {
	pts := fault.New(1, fault.Plan{Site: "worker.execute", Action: fault.ActionPanic, On: []int64{1}})
	s := testServer(t, Config{Workers: 1, CacheEntries: -1, Faults: pts})

	st, err := s.Submit(cycleRequest(12))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "panicked") {
		t.Fatalf("panicking job finished %s (%q), want failed with a typed panic error", fin.State, fin.Error)
	}
	if resp, _, _ := s.Result(st.ID); resp != nil {
		t.Fatal("panicked job served a result")
	}

	// The worker that recovered the panic must still be serving.
	waitDone(t, s, mustSubmit(t, s, cycleRequest(14)))

	m := s.Metrics()
	if m.Panicked != 1 || m.Failed != 1 {
		t.Fatalf("panicked=%d failed=%d, want 1/1", m.Panicked, m.Failed)
	}
	waitInflightZero(t, s)
}

// waitInflightZero polls the admission ledger to zero: a job's byte charge
// is returned shortly AFTER its done channel closes (the terminal journal
// fsync sits between), so an instantaneous read after Wait races the release.
// What this asserts is that the charge is returned at all, on every terminal
// path.
func waitInflightZero(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := s.Metrics()
		if m.InflightBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission ledger stuck at %d in-flight bytes with every job terminal", m.InflightBytes)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustSubmit(t *testing.T, s *Server, req *distcolor.Request) string {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestJobDeadlineFromRequest: deadline_ms on the request bounds the
// execution; an injected slow run lands in the distinct deadline_exceeded
// state, not failed.
func TestJobDeadlineFromRequest(t *testing.T) {
	pts := fault.New(1, fault.Plan{Site: "worker.execute", Action: fault.ActionSleep, Delay: 200 * time.Millisecond, On: []int64{1}})
	s := testServer(t, Config{Workers: 1, CacheEntries: -1, Faults: pts})

	req := cycleRequest(12)
	req.DeadlineMS = 5
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	fin, err := s.Wait(ctx, mustSubmit(t, s, req))
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDeadline || fin.Error == "" {
		t.Fatalf("over-deadline job finished %s (%q), want %s", fin.State, fin.Error, StateDeadline)
	}
	m := s.Metrics()
	if m.DeadlineExceeded != 1 || m.Failed != 0 {
		t.Fatalf("deadline_exceeded=%d failed=%d, want 1/0 (deadline is its own terminal)", m.DeadlineExceeded, m.Failed)
	}
	waitInflightZero(t, s)
}

// TestJobTimeoutServerDefault: -job-timeout bounds every job, and a
// request's deadline_ms can only tighten it, never loosen it.
func TestJobTimeoutServerDefault(t *testing.T) {
	pts := fault.New(1, fault.Plan{Site: "worker.execute", Action: fault.ActionSleep, Delay: 200 * time.Millisecond, On: []int64{1, 2}})
	s := testServer(t, Config{Workers: 1, CacheEntries: -1, JobTimeout: 5 * time.Millisecond, Faults: pts})

	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	fin, err := s.Wait(ctx, mustSubmit(t, s, cycleRequest(12)))
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDeadline {
		t.Fatalf("job under -job-timeout finished %s, want %s", fin.State, StateDeadline)
	}
	// A generous request deadline must not loosen the server bound.
	loose := cycleRequest(14)
	loose.DeadlineMS = 60_000
	fin2, err := s.Wait(ctx, mustSubmit(t, s, loose))
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != StateDeadline {
		t.Fatalf("deadline_ms=60000 loosened a 5ms -job-timeout: finished %s", fin2.State)
	}
}

// TestAdmitInjection: a scheduled fault at the admission hook rejects the
// submission without leaking any admission state.
func TestAdmitInjection(t *testing.T) {
	pts := fault.New(1, fault.Plan{Site: "service.admit", Action: fault.ActionErr, On: []int64{1}})
	s := testServer(t, Config{Workers: 1, CacheEntries: -1, Faults: pts})

	if _, err := s.Submit(cycleRequest(12)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected admission fault surfaced as %v", err)
	}
	waitDone(t, s, mustSubmit(t, s, cycleRequest(12)))
	m := s.Metrics()
	if m.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", m.Rejected)
	}
	waitInflightZero(t, s)
}

// TestPoisonQuarantineOnRecovery: a job whose journal shows poisonAttempts
// execution starts without a terminal state has crashed (or wedged) that
// many processes; replaying it again would crash-loop the daemon, so
// recovery turns it terminal-failed. One journaled attempt is normal
// at-least-once recovery and re-runs.
func TestPoisonQuarantineOnRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openForTest(t, dir, 0)
	for _, rec := range []distcolor.JobRecord{
		{ID: "j1", State: "queued", Request: cycleRequest(8)},
		{ID: "j1", State: "running", Attempts: poisonAttempts},
		{ID: "j2", State: "queued", Request: cycleRequest(10)},
		{ID: "j2", State: "running", Attempts: 1},
	} {
		if err := st.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Config{Workers: 1, CacheEntries: -1, DataDir: dir})
	p, err := s.Status("j1")
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateFailed || !strings.Contains(p.Error, "poisoned") {
		t.Fatalf("twice-started job recovered as %s (%q), want quarantined failed", p.State, p.Error)
	}
	waitDone(t, s, "j2") // the once-started job re-runs to done
	if m := s.Metrics(); m.Recovered != 2 {
		t.Fatalf("recovered=%d, want 2", m.Recovered)
	}
	s.Close()

	// The quarantine is itself journaled: a second restart must not give the
	// poisoned job another run.
	s2 := testServer(t, Config{Workers: 1, CacheEntries: -1, DataDir: dir})
	p2, err := s2.Status("j1")
	if err != nil {
		t.Fatal(err)
	}
	if p2.State != StateFailed || !strings.Contains(p2.Error, "poisoned") {
		t.Fatalf("poisoned terminal did not survive restart: %s (%q)", p2.State, p2.Error)
	}
}

// TestDegradedModeShedsAndHeals drives the full degraded lifecycle: a
// persistently failing journal flips the server read-only (Submit sheds
// misses with the typed 503, cache hits still serve memory-only, healthz and
// the gauge report the reason), and a healed disk exits degraded through the
// write probe without a restart.
func TestDegradedModeShedsAndHeals(t *testing.T) {
	inj := fault.NewInject(nil)
	s := testServer(t, Config{Workers: 1, DataDir: t.TempDir(), FS: inj, DegradedProbe: time.Millisecond})

	// Seed the cache with a completed workload while the journal is healthy.
	waitDone(t, s, mustSubmit(t, s, cycleRequest(16)))

	// The disk dies: every fsync fails from here on.
	inj.AddRule(fault.Rule{Op: fault.OpSync, Times: -1})
	if _, err := s.Submit(cycleRequest(18)); err == nil {
		t.Fatal("submission journaled through a dead disk")
	}
	var de *DegradedError
	_, err := s.Submit(cycleRequest(20))
	if !errors.Is(err, ErrDegraded) || !errors.As(err, &de) || de.RetryAfter <= 0 {
		t.Fatalf("degraded shed surfaced as %v, want *DegradedError with a retry hint", err)
	}
	h := s.Health()
	if !h.Degraded || h.Ready || h.DegradedReason == "" {
		t.Fatalf("healthz while degraded: %+v", h)
	}
	if m := s.Metrics(); m.Degraded != 1 {
		t.Fatalf("degraded gauge = %d, want 1", m.Degraded)
	}
	// Cache hits keep serving (memory-only — the one documented durability
	// gap, DESIGN.md §12).
	hit, err := s.Submit(cycleRequest(16))
	if err != nil || !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("cache hit while degraded: %+v, %v", hit, err)
	}

	// The disk heals: the next probe (at most DegradedProbe after the last)
	// exits degraded and submissions flow again.
	inj.ClearRules()
	healed := false
	for i := 0; i < 500 && !healed; i++ {
		time.Sleep(2 * time.Millisecond)
		st, err := s.Submit(cycleRequest(22))
		if err == nil {
			waitDone(t, s, st.ID)
			healed = true
		} else if !errors.Is(err, ErrDegraded) {
			t.Fatalf("unexpected submit error while healing: %v", err)
		}
	}
	if !healed {
		t.Fatal("server never exited degraded mode after the journal healed")
	}
	h2 := s.Health()
	if h2.Degraded || !h2.Ready {
		t.Fatalf("healthz after healing: %+v", h2)
	}
	m := s.Metrics()
	if m.Degraded != 0 {
		t.Fatalf("degraded gauge = %d after healing, want 0", m.Degraded)
	}
	waitInflightZero(t, s)
}

// TestWaitContext: Wait is ctx-first and non-leaking — a canceled context
// returns the job's current (possibly non-terminal) status instead of
// blocking.
func TestWaitContext(t *testing.T) {
	s := testServer(t, Config{CacheEntries: -1, Frozen: true}) // no workers: jobs queue forever
	id := mustSubmit(t, s, cycleRequest(12))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("frozen job reported terminal %s", st.State)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wait ignored its context")
	}
	if _, err := s.Wait(context.Background(), "j999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait on unknown ID: %v", err)
	}
}

// TestAdmissionReleasedOnNewTerminals pins the admission ledger across the
// terminal paths this package grew: panic, deadline, and an injected
// execution error must each return the job's queue slot and byte charge, and
// the server must remain ready.
func TestAdmissionReleasedOnNewTerminals(t *testing.T) {
	pts := fault.New(1,
		fault.Plan{Site: "worker.execute", Action: fault.ActionPanic, On: []int64{1}},
		fault.Plan{Site: "worker.execute", Action: fault.ActionSleep, Delay: 100 * time.Millisecond, On: []int64{2}},
		fault.Plan{Site: "worker.execute", Action: fault.ActionErr, On: []int64{3}},
	)
	s := testServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: -1, Faults: pts})

	deadline := cycleRequest(14)
	deadline.DeadlineMS = 5
	ids := []string{
		mustSubmit(t, s, cycleRequest(12)), // hit 1: panics
		mustSubmit(t, s, deadline),         // hit 2: sleeps past its deadline
		mustSubmit(t, s, cycleRequest(16)), // hit 3: injected execution error
	}
	wantStates := []State{StateFailed, StateDeadline, StateFailed}
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	for i, id := range ids {
		fin, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != wantStates[i] {
			t.Fatalf("job %s finished %s, want %s", id, fin.State, wantStates[i])
		}
	}
	waitInflightZero(t, s)
	m := s.Metrics()
	if m.QueueDepth != 0 {
		t.Fatalf("queue still holds %d entries", m.QueueDepth)
	}
	if h := s.Health(); !h.Ready {
		t.Fatalf("server not ready after fault terminals: %+v", h)
	}
	// The freed capacity is actually reusable.
	waitDone(t, s, mustSubmit(t, s, cycleRequest(18)))
}
