package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	distcolor "repro"
	"repro/internal/fault"
)

// scrape fetches GET /metrics and returns the exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("scrape content type %q lacks exposition version", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// seriesNames extracts the set of series names present in an exposition
// page (sample lines only; histogram _bucket/_sum/_count lines map back to
// the family name).
func seriesNames(text string) map[string]bool {
	names := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			names[strings.TrimSuffix(name, suf)] = true
		}
		names[name] = true
	}
	return names
}

// Every Metrics JSON field must have a Prometheus series exporting the same
// value, and the mapping table must not drift from the struct: a field
// added to one without the other fails here, not on a dashboard.
func TestEveryMetricsFieldHasASeries(t *testing.T) {
	tags := make(map[string]bool)
	mt := reflect.TypeOf(Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		tag := strings.Split(mt.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			t.Fatalf("Metrics field %s has no json tag", mt.Field(i).Name)
		}
		tags[tag] = true
		if _, ok := metricsSeries[tag]; !ok {
			t.Errorf("Metrics field %q has no entry in metricsSeries", tag)
		}
	}
	for tag := range metricsSeries {
		if !tags[tag] {
			t.Errorf("metricsSeries maps %q, which is not a Metrics field", tag)
		}
	}

	// End to end: run real work through a real HTTP server, then assert the
	// scrape page carries every mapped series plus the histogram families.
	s := testServer(t, Config{Workers: 2, CacheEntries: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(cycleRequest(24))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	if _, err := s.Submit(cycleRequest(24)); err != nil { // cache hit path
		t.Fatal(err)
	}
	got := seriesNames(scrape(t, ts.URL))
	for tag, series := range metricsSeries {
		if !got[series] {
			t.Errorf("series %s (Metrics field %q) missing from scrape", series, tag)
		}
	}
	for _, series := range []string{"colord_stage_duration_us", "colord_round_max_message_bits"} {
		if !got[series] {
			t.Errorf("histogram family %s missing from scrape", series)
		}
	}
}

// The exposition page is deterministic for a fixed server state, carries a
// HELP and TYPE header per family, and keeps families sorted — the
// stability contract a scraper's staleness handling relies on.
func TestMetricsPromStableAndWellFormed(t *testing.T) {
	s := testServer(t, Config{Workers: 1, Frozen: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, b := scrape(t, ts.URL), scrape(t, ts.URL)
	// The HTTP byte counters observe the scrape traffic itself, so they are
	// the one legitimate difference between two scrapes of an idle server.
	stripSelf := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "colord_http_request_bytes_total ") ||
				strings.HasPrefix(line, "colord_http_response_bytes_total ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripSelf(a) != stripSelf(b) {
		t.Fatal("two scrapes of an idle server differ")
	}
	var families []string
	sc := bufio.NewScanner(strings.NewReader(a))
	help, typ := map[string]bool{}, map[string]bool{}
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == "#" && f[1] == "HELP" {
			help[f[2]] = true
			families = append(families, f[2])
		}
		if len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			typ[f[2]] = true
		}
	}
	if len(families) == 0 {
		t.Fatal("no metric families in scrape")
	}
	if !strings.HasPrefix(a, "# HELP ") {
		t.Fatalf("exposition does not start with a HELP header: %q", a[:min(len(a), 60)])
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Fatalf("families out of order: %s then %s", families[i-1], families[i])
		}
	}
	for f := range help {
		if !typ[f] {
			t.Errorf("family %s has HELP but no TYPE", f)
		}
	}
	// The stage histogram must expose one labeled series per lifecycle
	// stage, cumulative buckets included.
	for _, stage := range []string{stageAdmit, stageQueue, stageExecute, stageVerify, stageServe} {
		want := `colord_stage_duration_us_bucket{stage="` + stage + `",le="+Inf"}`
		if !strings.Contains(a, want) {
			t.Errorf("scrape lacks %s", want)
		}
	}
}

// Satellite regression: Metrics() must be a coherent single-lock snapshot.
// Flood the server with batch submissions while hammering the JSON metrics
// endpoint and check cross-field invariants that only hold if no field is
// read torn from the others. Run with -race, this also hunts data races
// between the scrape path and the submit/run paths.
func TestMetricsCoherentUnderBatchFlood(t *testing.T) {
	s := testServer(t, Config{Workers: 2, QueueDepth: 64, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Batch flood: enough work to keep the queue busy, small enough to
	// finish promptly.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &Client{Base: ts.URL, MaxRetries: -1}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reqs := make([]distcolor.Request, 8)
				for k := range reqs {
					reqs[k] = *cycleRequest(16 + (i+k)%7)
				}
				_, _ = cl.Batch(context.Background(), reqs)
			}
		}(w)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		finished := m.Completed + m.Failed + m.Canceled
		if finished > m.Submitted {
			t.Fatalf("torn snapshot: %d finished > %d submitted (%+v)", finished, m.Submitted, m)
		}
		if m.QueueDepth < 0 || m.Running < 0 || m.InflightBytes < 0 {
			t.Fatalf("negative occupancy in snapshot: %+v", m)
		}
		if m.Running > m.Workers {
			t.Fatalf("running %d > workers %d", m.Running, m.Workers)
		}
		// Prometheus scrapes ride along to race the text path too.
		_ = scrape(t, ts.URL)
	}
	close(stop)
	wg.Wait()
}

// A finished job's trace stream ends with a complete admit→serve span tree;
// a cache hit's tree is admit+serve only.
func TestTraceSpanTree(t *testing.T) {
	s := testServer(t, Config{Workers: 1, CacheEntries: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	st, err := s.Submit(cycleRequest(32))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	var spans []Span
	state, err := cl.TraceSpans(context.Background(), st.ID, nil, func(sp Span) { spans = append(spans, sp) })
	if err != nil {
		t.Fatal(err)
	}
	if state != StateDone {
		t.Fatalf("trace ended in state %s", state)
	}
	checkTree(t, spans, []string{"job", stageAdmit, stageQueue, stageExecute, stageVerify, stageServe})

	// Identical resubmission: served from cache, no queue/execute/verify.
	hit, err := s.Submit(cycleRequest(32))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", hit)
	}
	spans = nil
	if _, err := cl.TraceSpans(context.Background(), hit.ID, nil, func(sp Span) { spans = append(spans, sp) }); err != nil {
		t.Fatal(err)
	}
	checkTree(t, spans, []string{"job", stageAdmit, stageServe})
}

// checkTree asserts the span list is exactly the named set, all closed,
// with one root ("job") that every other span parents to, and child spans
// contained within the root's interval.
func checkTree(t *testing.T, spans []Span, want []string) {
	t.Helper()
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %v, want %v", len(spans), names(spans), want)
	}
	byName := make(map[string]Span, len(spans))
	rootIdx := -1
	for i, sp := range spans {
		byName[sp.Name] = sp
		if sp.DurUS < 0 {
			t.Errorf("span %s still open in terminal trace", sp.Name)
		}
		if sp.Name == "job" {
			rootIdx = i
			if sp.Parent != -1 {
				t.Errorf("root span has parent %d", sp.Parent)
			}
			if sp.StartUS != 0 {
				t.Errorf("root span starts at %dµs", sp.StartUS)
			}
		}
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %s missing (got %v)", name, names(spans))
		}
	}
	root := spans[rootIdx]
	for i, sp := range spans {
		if i == rootIdx {
			continue
		}
		if sp.Parent != rootIdx {
			t.Errorf("span %s parents to %d, root is %d", sp.Name, sp.Parent, rootIdx)
		}
		if sp.StartUS < root.StartUS || sp.StartUS+sp.DurUS > root.StartUS+root.DurUS {
			t.Errorf("span %s [%d,%d] outside root [%d,%d]",
				sp.Name, sp.StartUS, sp.StartUS+sp.DurUS, root.StartUS, root.StartUS+root.DurUS)
		}
	}
	// The lifecycle stages abut: each begins where the previous ended.
	for i := 2; i < len(want); i++ {
		prev, cur := byName[want[i-1]], byName[want[i]]
		if cur.StartUS != prev.StartUS+prev.DurUS {
			t.Errorf("span %s starts at %dµs, %s ended at %dµs",
				cur.Name, cur.StartUS, prev.Name, prev.StartUS+prev.DurUS)
		}
	}
}

func names(spans []Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// WAL activity must surface in the scrape when a store is configured.
func TestWALSeriesExported(t *testing.T) {
	s := testServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(cycleRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	// The terminal append is fsync'd after the done transition Wait
	// returns on; the admission charge is released after it.
	waitInflightZero(t, s)
	text := scrape(t, ts.URL)
	for _, series := range []string{
		"colord_wal_appends_total", "colord_wal_fsyncs_total",
		"colord_wal_compactions_total", "colord_wal_segments", "colord_wal_active_bytes",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape lacks %s", series)
		}
	}
	a, f, _ := s.store.Counters()
	if a < 2 { // submission + terminal at minimum
		t.Errorf("store counted %d appends, want >= 2", a)
	}
	if f < 2 { // both of those fsync'd
		t.Errorf("store counted %d fsyncs, want >= 2", f)
	}
}

// TestMetricsCountJobBeforeWaitReturns pins that a job's terminal counters
// are visible the moment Wait returns: the worker and Cancel count the
// outcome before the job's done channel closes, and on this journaled
// server the terminal WAL fsync comes after. It covers 100 jobs that
// finish done, three that hit their deadline, one canceled while running
// and one canceled while queued; Wait runs concurrently with every
// terminal transition.
func TestMetricsCountJobBeforeWaitReturns(t *testing.T) {
	type kind int
	const (
		done kind = iota
		deadline
		cancelRunning
		blocker // done, but slow enough for the job queued behind it to be canceled
		cancelQueued
	)
	var sched []kind
	for i := 0; i < 100; i++ {
		sched = append(sched, done)
		switch i {
		case 24, 49, 74:
			sched = append(sched, deadline)
		case 89:
			sched = append(sched, cancelRunning)
		}
	}
	sched = append(sched, blocker, cancelQueued)
	// One worker runs the jobs in submission order, so the hits at the
	// worker.execute site are numbered by the executed jobs. A deadline job
	// sleeps there past its deadline; the job to cancel while running, and
	// the one the queued job waits behind, sleep long enough for the
	// canceling goroutine to act.
	var slow, slower []int64
	hit := int64(0)
	for _, k := range sched {
		switch k {
		case cancelQueued:
			continue
		case deadline:
			slow = append(slow, hit+1)
		case cancelRunning, blocker:
			slower = append(slower, hit+1)
		}
		hit++
	}
	pts := fault.New(1,
		fault.Plan{Site: "worker.execute", Action: fault.ActionSleep, Delay: 50 * time.Millisecond, On: slow},
		fault.Plan{Site: "worker.execute", Action: fault.ActionSleep, Delay: 500 * time.Millisecond, On: slower})
	s := testServer(t, Config{Workers: 1, CacheEntries: -1, DataDir: t.TempDir(), Faults: pts})
	ctx := context.Background()

	var want Metrics
	var blockerID string
	for i, k := range sched {
		req := cycleRequest(12)
		if k == deadline {
			req.DeadlineMS = 5
		}
		id := mustSubmit(t, s, req)
		switch k {
		case blocker:
			blockerID = id
			continue // waited for after the job queued behind it
		case cancelRunning, cancelQueued:
			go func() {
				for k == cancelRunning {
					st, err := s.Status(id)
					if err != nil || st.State != StateQueued {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if _, err := s.Cancel(id); err != nil {
					t.Errorf("cancel %s: %v", id, err)
				}
			}()
		}
		st, err := s.Wait(ctx, id)
		m := s.Metrics()
		if err != nil {
			t.Fatalf("job %d: wait: %v", i, err)
		}
		switch k {
		case done:
			want.Completed++
			resp, _, err := s.Result(id)
			if err != nil || resp == nil {
				t.Fatalf("job %d: result: %v", i, err)
			}
			want.RoundsTotal += int64(resp.Stats.Rounds)
			want.MessagesTotal += resp.Stats.Messages
			want.WallMSTotal += st.WallMS
		case deadline:
			want.DeadlineExceeded++
		case cancelRunning, cancelQueued:
			want.Canceled++
		}
		if st.State != map[kind]State{done: StateDone, deadline: StateDeadline, cancelRunning: StateCanceled, cancelQueued: StateCanceled}[k] {
			t.Fatalf("job %d (kind %d) finished %s (%s)", i, k, st.State, st.Error)
		}
		if m.Completed != want.Completed || m.DeadlineExceeded != want.DeadlineExceeded || m.Canceled != want.Canceled ||
			m.Failed != 0 || m.RoundsTotal != want.RoundsTotal || m.MessagesTotal != want.MessagesTotal || m.WallMSTotal != want.WallMSTotal {
			t.Fatalf("job %d (kind %d): Metrics read right after Wait is stale: completed=%d deadline_exceeded=%d canceled=%d failed=%d rounds=%d messages=%d wall_ms=%d, want %d/%d/%d/0/%d/%d/%d",
				i, k, m.Completed, m.DeadlineExceeded, m.Canceled, m.Failed, m.RoundsTotal, m.MessagesTotal, m.WallMSTotal,
				want.Completed, want.DeadlineExceeded, want.Canceled, want.RoundsTotal, want.MessagesTotal, want.WallMSTotal)
		}
	}
	if st := waitDone(t, s, blockerID); st.State != StateDone {
		t.Fatalf("blocker finished %s", st.State)
	}
	waitInflightZero(t, s)
}
