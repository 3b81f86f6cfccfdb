package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	distcolor "repro"
	"repro/internal/verify"
)

// condensed is the comparable shape of a replayed job record.
type condensed struct {
	id, state, errMsg string
	hasReq, hasResp   bool
	cacheHit          bool
}

func condense(rec distcolor.JobRecord) condensed {
	return condensed{
		id: rec.ID, state: rec.State, errMsg: rec.Error,
		hasReq: rec.Request != nil, hasResp: rec.Response != nil,
		cacheHit: rec.CacheHit,
	}
}

func openForTest(t *testing.T, dir string, maxSeg int64) (*Store, []distcolor.JobRecord) {
	t.Helper()
	st, recs, err := OpenStore(dir, maxSeg)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return st, recs
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, recs := openForTest(t, dir, 0)
	if len(recs) != 0 {
		t.Fatalf("fresh store recovered %d records", len(recs))
	}
	req := cycleRequest(8)
	resp := &distcolor.Response{Kind: "edge", Algorithm: "edge/greedy", Palette: 3, Colors: []int64{0, 1, 0, 1, 0, 1, 0, 2}}
	appends := []struct {
		rec  distcolor.JobRecord
		sync bool
	}{
		{distcolor.JobRecord{ID: "j1", State: "queued", Request: req}, true},
		{distcolor.JobRecord{ID: "j1", State: "running"}, false},
		{distcolor.JobRecord{ID: "j1", State: "done", Response: resp, WallMS: 7}, true},
		{distcolor.JobRecord{ID: "j2", State: "queued", Request: req}, true},
		{distcolor.JobRecord{ID: "j3", State: "queued", Request: req}, true},
		{distcolor.JobRecord{ID: "j3", State: "canceled", Error: "service: job canceled"}, true},
		{distcolor.JobRecord{ID: "j4", State: "done", Request: req, Response: resp, CacheHit: true}, true},
	}
	for _, a := range appends {
		if err := st.Append(a.rec, a.sync); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, got := openForTest(t, dir, 0)
	want := []condensed{
		{id: "j1", state: "done", hasReq: true, hasResp: true},
		{id: "j2", state: "queued", hasReq: true},
		{id: "j3", state: "canceled", errMsg: "service: job canceled", hasReq: true},
		{id: "j4", state: "done", hasReq: true, hasResp: true, cacheHit: true},
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d: %+v", len(got), len(want), got)
	}
	for i, rec := range got {
		if condense(rec) != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, condense(rec), want[i])
		}
	}
	if got[0].WallMS != 7 {
		t.Errorf("j1 wall_ms = %d, want 7", got[0].WallMS)
	}
}

// TestStorePrefixReplayConsistent is the crash-consistency property test:
// every byte prefix of a journal — a clean cut at a record boundary, a torn
// frame header, a torn payload — must replay without error to exactly the
// table of the records that are fully contained in the prefix.
func TestStorePrefixReplayConsistent(t *testing.T) {
	dir := t.TempDir()
	st, _ := openForTest(t, dir, 1<<20)
	req := cycleRequest(6)
	resp := &distcolor.Response{Kind: "edge", Algorithm: "edge/greedy", Palette: 3, Colors: []int64{0, 1, 0, 1, 0, 2}}
	script := []distcolor.JobRecord{
		{ID: "j1", State: "queued", Request: req},
		{ID: "j2", State: "queued", Request: req},
		{ID: "j1", State: "running"},
		{ID: "j1", State: "done", Response: resp, WallMS: 3},
		{ID: "j3", State: "queued", Request: req},
		{ID: "j2", State: "running"},
		{ID: "j2", State: "failed", Error: "boom"},
		{ID: "j3", State: "canceled", Error: "service: job canceled"},
		{ID: "j1", State: storeStateForgotten},
		{ID: "j4", State: "done", Request: req, Response: resp, CacheHit: true},
	}
	for _, rec := range script {
		if err := st.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The whole scripted journal lives in segment 1 (maxSeg is large).
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	// Recover the record boundaries from the framing itself.
	var bounds []int64 // end offset of record i
	off := int64(0)
	for off < int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + n
		bounds = append(bounds, off)
	}
	if off != int64(len(data)) || len(bounds) != len(script) {
		t.Fatalf("journal framing: %d records ending at %d, want %d records over %d bytes", len(bounds), off, len(script), len(data))
	}

	// expected replays the first k script records through the same merge
	// semantics the store promises.
	expected := func(k int) map[string]condensed {
		table := map[string]*distcolor.JobRecord{}
		for _, rec := range script[:k] {
			cp := rec
			mergeRecord(table, &cp)
		}
		out := map[string]condensed{}
		for id, rec := range table {
			out[id] = condense(*rec)
		}
		return out
	}

	// Cut points: every record boundary (clean crash), plus tears inside
	// the next record's header and payload.
	var cuts []int64
	prev := int64(0)
	for _, b := range bounds {
		cuts = append(cuts, prev, prev+3, prev+8, (prev+b)/2, b-1)
		prev = b
	}
	cuts = append(cuts, int64(len(data)))
	for _, cut := range cuts {
		if cut < 0 || cut > int64(len(data)) {
			continue
		}
		// Records fully contained in the prefix.
		k := 0
		for k < len(bounds) && bounds[k] <= cut {
			k++
		}
		pdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(pdir, segName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		pst, recs, err := OpenStore(pdir, 1<<20)
		if err != nil {
			t.Fatalf("prefix %d/%d bytes: replay failed: %v", cut, len(data), err)
		}
		got := map[string]condensed{}
		for _, rec := range recs {
			got[rec.ID] = condense(rec)
		}
		want := expected(k)
		if len(got) != len(want) {
			t.Fatalf("prefix %d bytes (%d records): table %+v, want %+v", cut, k, got, want)
		}
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("prefix %d bytes: job %s = %+v, want %+v", cut, id, got[id], w)
			}
		}
		// The truncated store accepts appends cleanly.
		if err := pst.Append(distcolor.JobRecord{ID: "j9", State: "queued", Request: req}, true); err != nil {
			t.Fatalf("prefix %d bytes: append after recovery: %v", cut, err)
		}
		pst.Close()
	}
}

// TestStoreCompaction drives enough appends through a tiny segment bound to
// trigger rotation-time compaction, and checks that the journal stays
// bounded while replaying to the same table — with forgotten jobs dropped.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openForTest(t, dir, 2048) // tiny segments force rotations
	req := cycleRequest(6)
	resp := &distcolor.Response{Kind: "edge", Algorithm: "edge/greedy", Palette: 3, Colors: []int64{0, 1, 0, 1, 0, 2}}
	const jobs = 40
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := st.Append(distcolor.JobRecord{ID: id, State: "queued", Request: req}, true); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(distcolor.JobRecord{ID: id, State: "done", Response: resp}, true); err != nil {
			t.Fatal(err)
		}
		if i <= jobs/2 { // first half forgotten by retention
			if err := st.Append(distcolor.JobRecord{ID: id, State: storeStateForgotten}, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	segments, _ := st.Stats()
	if segments >= storeCompactSegments+2 {
		t.Fatalf("journal grew to %d segments despite compaction", segments)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openForTest(t, dir, 2048)
	if len(recs) != jobs/2 {
		t.Fatalf("recovered %d jobs, want %d (forgotten half must stay dropped)", len(recs), jobs/2)
	}
	for i, rec := range recs {
		wantID := fmt.Sprintf("j%d", jobs/2+i+1)
		if rec.ID != wantID || rec.State != "done" || rec.Response == nil {
			t.Fatalf("record %d = %s/%s (resp %v), want %s/done", i, rec.ID, rec.State, rec.Response != nil, wantID)
		}
	}
}

// TestForgottenJobIDsStayBurned: a job dropped by retention disappears
// from the replayed table, but its ID must never be handed out again — a
// client still holding it would silently read a different job. The
// high-water mark must survive plain replay AND compaction (which rewrites
// the journal from the table the forgotten job is already gone from).
func TestForgottenJobIDsStayBurned(t *testing.T) {
	dir := t.TempDir()
	st, _ := openForTest(t, dir, 0)
	req := cycleRequest(6)
	for _, rec := range []distcolor.JobRecord{
		{ID: "j1", State: "queued", Request: req},
		{ID: "j1", State: "done"},
		{ID: "j7", State: "queued", Request: req},
		{ID: "j7", State: "done"},
		{ID: "j7", State: storeStateForgotten}, // the highest ID is forgotten
	} {
		if err := st.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil { // compaction must preserve the mark
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, recs := openForTest(t, dir, 0)
	st2.Close()
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("recovered table %+v, want only j1", recs)
	}
	if got := st2.MaxJobID(); got != 7 {
		t.Fatalf("MaxJobID = %d after forget+compact, want 7", got)
	}
	// End to end: a server on this dir must assign j8, not reuse j7.
	s, err := NewServer(Config{Workers: 1, CacheEntries: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jst, err := s.Submit(cycleRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if jst.ID != "j8" {
		t.Fatalf("post-forget submission got ID %s, want j8 (j7 is burned)", jst.ID)
	}
}

// TestStoreTornTailGarbage: garbage appended by a crash (not even a valid
// frame) is truncated away on open, and the store keeps working.
func TestStoreTornTailGarbage(t *testing.T) {
	dir := t.TempDir()
	st, _ := openForTest(t, dir, 0)
	req := cycleRequest(4)
	if err := st.Append(distcolor.JobRecord{ID: "j1", State: "queued", Request: req}, true); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2, recs := openForTest(t, dir, 0)
	defer st2.Close()
	if len(recs) != 1 || recs[0].ID != "j1" || recs[0].State != "queued" {
		t.Fatalf("recovered %+v past a garbage tail", recs)
	}
}

// crashRequests is the 50-job batch both halves of the kill -9 test build:
// the child submits it, the parent re-derives it to verify recovered
// colorings. Seeds are distinct so every job really runs (and the parent
// can tell jobs apart).
func crashRequests() []*distcolor.Request {
	reqs := make([]*distcolor.Request, 50)
	for i := range reqs {
		reqs[i] = gnpRequest(distcolor.AlgoEdgeGreedy, 32, 0.2, int64(1000+i))
	}
	return reqs
}

// TestCrashChild is the kill -9 victim: re-executed by
// TestCrashRecoveryKill9 with REPRO_CRASH_DIR set, it opens a durable
// server, submits the 50-job batch, reports READY, and waits to be killed
// mid-execution.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("REPRO_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process for TestCrashRecoveryKill9")
	}
	s, err := NewServer(Config{Workers: 1, QueueDepth: 64, CacheEntries: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range crashRequests() {
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Println("READY")
	os.Stdout.Sync()
	time.Sleep(time.Minute) // the parent SIGKILLs us long before this
}

// TestCrashRecoveryKill9 pins the acceptance criterion of the durable
// store: kill -9 during a 50-job batch, restart on the same data dir —
// every job is either re-run to a verified coloring or reported terminal;
// none lost, none duplicated.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "REPRO_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "READY") {
			ready = true
			break
		}
	}
	if !ready {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never reported READY")
	}
	// Let the single worker chew into the batch, then kill -9 mid-job.
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reaps the SIGKILLed child; its exit status is expectedly non-zero

	s, err := NewServer(Config{Workers: 2, QueueDepth: 64, CacheEntries: -1, DataDir: dir})
	if err != nil {
		t.Fatalf("restart on crashed data dir: %v", err)
	}
	defer s.Close()
	m := s.Metrics()
	if m.Recovered != 50 {
		t.Fatalf("recovered %d jobs, want all 50 (none lost)", m.Recovered)
	}
	reqs := crashRequests()
	for i, req := range reqs {
		id := fmt.Sprintf("j%d", i+1) // the child submitted serially: ID order = request order
		waitDone(t, s, id)
		resp, _, err := s.Result(id)
		if err != nil || resp == nil {
			t.Fatalf("job %s has no result after recovery: %v", id, err)
		}
		g, err := req.Graph.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.EdgeColoring(g, resp.Colors, resp.Palette); err != nil {
			t.Fatalf("job %s serves an invalid coloring after recovery: %v", id, err)
		}
	}
	// None duplicated: a fresh submission must get a fresh ID past the
	// journal's maximum, never reuse one of the 50.
	st, err := s.Submit(cycleRequest(10))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j51" {
		t.Fatalf("post-recovery submission got ID %s, want j51", st.ID)
	}
}

// TestRestartRaceHammer hammers submit/cancel from several goroutines
// across repeated server restarts on one data dir; under -race it is the
// store/admission concurrency check named by the Makefile race target.
func TestRestartRaceHammer(t *testing.T) {
	dir := t.TempDir()
	seen := map[string]bool{}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	for round := 0; round < 3; round++ {
		s, err := NewServer(Config{Workers: 2, QueueDepth: 128, CacheEntries: -1, DataDir: dir})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					req := gnpRequest(distcolor.AlgoEdgeGreedy, 16, 0.25, int64(round*1000+w*100+i))
					st, err := s.Submit(req)
					if err != nil {
						t.Errorf("round %d submit: %v", round, err)
						continue
					}
					if i%2 == 0 {
						if _, err := s.Cancel(st.ID); err != nil {
							t.Errorf("round %d cancel %s: %v", round, st.ID, err)
						}
					}
					if _, err := s.Wait(ctx, st.ID); err != nil {
						t.Errorf("round %d wait %s: %v", round, st.ID, err)
					}
				}
			}(w)
		}
		wg.Wait()
		s.Close() // graceful: drains the queue, so every journaled job ends terminal
	}
	// Final replay: every job recovered exactly once and terminal.
	st, recs, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(recs) != 3*4*5 {
		t.Fatalf("recovered %d jobs, want %d", len(recs), 3*4*5)
	}
	for _, rec := range recs {
		if seen[rec.ID] {
			t.Fatalf("job %s recovered twice", rec.ID)
		}
		seen[rec.ID] = true
		if !State(rec.State).Terminal() {
			t.Fatalf("job %s recovered %s after graceful close", rec.ID, rec.State)
		}
	}
}
