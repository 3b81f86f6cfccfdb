package service

// The deterministic chaos suite (`make chaos`). One seeded fault schedule —
// CHAOS_SEED selects it, default 1 — drives a 200-job workload through every
// injection point at once: scheduled panics, injected execution errors,
// universal slow-downs against per-job deadlines, admission faults, a
// dying-then-healing journal disk, a torn journal tail across a restart, and
// a flaky client-side HTTP transport. The invariants are universal (they hold
// for EVERY seed, which is what the nightly seed sweep leans on):
//
//   - no accepted job is lost or duplicated, and no job ID is ever reused;
//   - every accepted job reaches a typed terminal state (a failure always
//     carries its error; deadline is its own state; nothing is "canceled"
//     because nothing cancels);
//   - the process survives every fault — scheduled panics are quarantined to
//     their jobs and the same workers keep serving;
//   - degraded mode is entered (journal dies), observable (typed 503s,
//     healthz, gauge), and exited (probe heals it) without a restart;
//   - every terminal outcome survives a restart over a torn journal tail.
//
// A failure report starts with pts.String() — the full schedule — so any
// failing run is replayable from its seed alone.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	distcolor "repro"
	"repro/internal/fault"
)

func chaosSeed(t *testing.T) int64 {
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return 1
	}
	n, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", env, err)
	}
	return n
}

func TestChaos(t *testing.T) {
	seed := chaosSeed(t)
	dir := t.TempDir()
	inj := fault.NewInject(nil)
	// The schedule: explicit On indexes guarantee each fault family fires at
	// least once under ANY seed; the Rate terms add seed-dependent background
	// chaos on top. The sleep plan fires on every hit the earlier plans left
	// alone, so jobs carrying a 1ms deadline_ms overrun it deterministically.
	pts := fault.New(seed,
		fault.Plan{Site: "worker.execute", Action: fault.ActionPanic, On: []int64{3, 41}, Rate: 0.02},
		fault.Plan{Site: "worker.execute", Action: fault.ActionErr, On: []int64{7}, Rate: 0.04},
		fault.Plan{Site: "worker.execute", Action: fault.ActionSleep, Delay: 10 * time.Millisecond, Rate: 1},
		fault.Plan{Site: "service.admit", Action: fault.ActionErr, On: []int64{25}, Rate: 0.01},
	)
	fail := func(format string, args ...any) {
		t.Fatalf("%s\n%s", fmt.Sprintf(format, args...), pts.String())
	}
	// One deadline bounds every job wait of the suite.
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Minute)
	defer cancel()
	s, err := NewServer(Config{
		Workers: 4, QueueDepth: 512, DataDir: dir, FS: inj,
		Faults: pts, DegradedProbe: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

	// Phase 1: the 200-job workload. Every 10th job carries a 1ms deadline;
	// non-deadline seeds repeat mod 37 for cache-hit traffic.
	const jobs = 200
	accepted := []string{}
	var admitFaults, sheds int
	for i := 0; i < jobs; i++ {
		var req *distcolor.Request
		if i%10 == 0 {
			req = gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64(1000+i))
			req.DeadlineMS = 1
		} else {
			req = gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64(i%37))
		}
		st, err := s.Submit(req)
		if err != nil {
			switch {
			case errors.Is(err, fault.ErrInjected):
				admitFaults++
			case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDegraded):
				sheds++
			default:
				fail("job %d: unexpected submit error: %v", i, err)
			}
			continue
		}
		accepted = append(accepted, st.ID)
	}
	if admitFaults == 0 {
		fail("the admission fault plan (On 25) never fired")
	}

	// Every accepted job reaches a typed terminal state, exactly once each.
	states := map[string]State{}
	for _, id := range accepted {
		fin, err := s.Wait(ctx, id)
		if err != nil {
			fail("job %s lost: %v", id, err)
		}
		if !fin.State.Terminal() {
			fail("job %s stuck in %s", id, fin.State)
		}
		if _, dup := states[id]; dup {
			fail("job ID %s handed out twice", id)
		}
		states[id] = fin.State
		switch fin.State {
		case StateFailed, StateDeadline:
			if fin.Error == "" {
				fail("job %s terminal %s without a typed error", id, fin.State)
			}
		case StateCanceled:
			fail("job %s canceled; nothing cancels in this suite", id)
		}
	}
	m := s.Metrics()
	if m.Panicked < 2 {
		fail("panic plan (On 3,41) fired %d times, want >= 2", m.Panicked)
	}
	if m.DeadlineExceeded < 1 {
		fail("no job exceeded its deadline (20 carried deadline_ms=1)")
	}
	waitInflightZero(t, s)

	// Phase 2: degraded mode. Seed the cache with a known-done workload
	// (retrying past background faults), then kill the disk.
	cacheReq := func() *distcolor.Request { return gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, 9999) }
	seeded := false
	for i := 0; i < 20 && !seeded; i++ {
		if st, err := s.Submit(cacheReq()); err == nil {
			if fin, werr := s.Wait(ctx, st.ID); werr == nil && fin.State == StateDone {
				states[st.ID] = fin.State
				seeded = true
			}
		}
	}
	if !seeded {
		fail("could not complete the cache-seed workload in 20 attempts")
	}
	// The seed job's terminal journal fsync runs after Wait returns; it
	// must land before the disk dies, or it is the write that finds the
	// dead disk and the server is degraded before the submissions below.
	// The admission charge is released after that fsync.
	waitInflightZero(t, s)
	errDiskDead := errors.New("chaos: disk dead")
	inj.AddRule(fault.Rule{Op: fault.OpSync, Times: -1, Err: errDiskDead})
	entered := false
	for i := 0; i < 20 && !entered; i++ {
		_, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64(20000+i)))
		entered = errors.Is(err, errDiskDead)
	}
	if !entered {
		fail("a dead disk never failed a submission")
	}
	degradedSeen := false
	for i := 0; i < 20 && !degradedSeen; i++ {
		_, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64(30000+i)))
		degradedSeen = errors.Is(err, ErrDegraded)
	}
	if !degradedSeen {
		fail("degraded mode never shed a submission with the typed 503")
	}
	if h := s.Health(); !h.Degraded || h.Ready || h.DegradedReason == "" {
		fail("healthz while degraded: %+v", h)
	}
	if mm := s.Metrics(); mm.Degraded != 1 {
		fail("degraded gauge = %d while degraded", mm.Degraded)
	}
	// Cache hits keep serving while degraded (memory-only; their IDs are the
	// one documented durability gap — asserted after the restart below).
	degradedHitID := ""
	for i := 0; i < 10 && degradedHitID == ""; i++ {
		if st, err := s.Submit(cacheReq()); err == nil && st.CacheHit {
			degradedHitID = st.ID
		}
	}
	if degradedHitID == "" {
		fail("no cache hit served while degraded")
	}
	// The disk heals; the probe exits degraded without a restart.
	inj.ClearRules()
	healed := false
	for i := 0; i < 500 && !healed; i++ {
		time.Sleep(2 * time.Millisecond)
		st, err := s.Submit(gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, int64(40000+i)))
		if err == nil {
			fin, werr := s.Wait(ctx, st.ID)
			if werr != nil || !fin.State.Terminal() {
				fail("post-heal job %s: %+v, %v", st.ID, fin, werr)
			}
			states[st.ID] = fin.State
			healed = true
		} else if !errors.Is(err, ErrDegraded) && !errors.Is(err, fault.ErrInjected) {
			fail("unexpected error while healing: %v", err)
		}
	}
	if !healed {
		fail("server never exited degraded mode")
	}
	if h := s.Health(); h.Degraded {
		fail("healthz still degraded after healing: %+v", h)
	}

	// Phase 3: restart over a torn tail. Graft crash garbage onto the
	// newest journal segment; replay must heal it and serve every journaled
	// terminal unchanged.
	s.Close()
	closed = true
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		fail("no journal segments on disk")
	}
	f, err := os.OpenFile(dir+"/"+last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewServer(Config{Workers: 2, QueueDepth: 512, DataDir: dir})
	if err != nil {
		fail("restart on the chaos journal: %v", err)
	}
	defer s2.Close()
	maxID := int64(0)
	for id, want := range states {
		got, err := s2.Status(id)
		if err != nil {
			fail("job %s lost across restart: %v", id, err)
		}
		if got.State != want {
			fail("job %s recovered as %s, want %s", id, got.State, want)
		}
		if n := jobIDNum(id); n > maxID {
			maxID = n
		}
	}
	// The degraded-mode cache hit was served memory-only: its ID not
	// surviving the restart is the documented gap, not a loss.
	if _, err := s2.Status(degradedHitID); !errors.Is(err, ErrNotFound) {
		if _, tracked := states[degradedHitID]; !tracked {
			fail("degraded cache-hit ID %s: %v, want ErrNotFound (memory-only serve)", degradedHitID, err)
		}
	}

	// Phase 4: the flaky client transport (GET-only injection, so a failed
	// poll can never un-account a submission), then a clean job end-to-end —
	// the workers that absorbed every fault above are still alive.
	cpts := fault.New(seed, fault.Plan{Site: "client.rt", Action: fault.ActionErr, On: []int64{2}, After: 1, Rate: 0.25})
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: &http.Client{
		Transport: &fault.Transport{Points: cpts, Site: "client.rt", GETOnly: true},
	}}
	var polled, injected int
	for i := 0; i < 20; i++ {
		if _, err := c.Status(ctx, accepted[0]); err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				fail("poll %d: %v", i, err)
			}
			injected++
		} else {
			polled++
		}
	}
	if polled == 0 || injected == 0 {
		fail("transport injection: %d clean polls, %d injected failures — want both", polled, injected)
	}
	st, err := c.Submit(ctx, gnpRequest(distcolor.AlgoEdgeGreedy, 24, 0.2, 77777))
	if err != nil {
		fail("clean submission through the flaky transport: %v", err)
	}
	if n := jobIDNum(st.ID); n <= maxID {
		fail("fresh submission reused job ID %s (journal max j%d)", st.ID, maxID)
	}
	fin, err := s2.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		fail("final clean job: %+v, %v", fin, err)
	}
}
