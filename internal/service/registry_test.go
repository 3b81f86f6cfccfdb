package service

import (
	"context"
	"testing"
	"time"

	"net/http/httptest"

	distcolor "repro"
	"repro/internal/gen"
)

// TestAlgorithmsEndpointServesRegistry: /v1/algorithms returns the full
// registry metadata — every registered algorithm with its kind and
// parameter schema — so clients can discover workloads instead of
// hardcoding algorithm strings.
func TestAlgorithmsEndpointServesRegistry(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	infos, err := c.Algorithms(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := distcolor.Algorithms()
	if len(infos) != len(want) {
		t.Fatalf("endpoint lists %d algorithms, registry has %d", len(infos), len(want))
	}
	byName := map[string]distcolor.AlgorithmInfo{}
	for _, info := range infos {
		byName[info.Name] = info
		if info.Kind != distcolor.KindEdge && info.Kind != distcolor.KindVertex {
			t.Errorf("%s: bad kind %q", info.Name, info.Kind)
		}
		if info.Params == nil {
			t.Errorf("%s: params served as null, want []", info.Name)
		}
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Errorf("registry algorithm %s missing from endpoint", name)
		}
	}
	sparse := byName[distcolor.AlgoEdgeSparse]
	var sawQ bool
	for _, p := range sparse.Params {
		if p.Name == "q" {
			sawQ = true
			if p.Default != 3 || p.ClampMin != 2.05 {
				t.Errorf("q schema = %+v, want default 3 clamp 2.05", p)
			}
		}
	}
	if !sawQ {
		t.Error("edge/sparse schema lacks q")
	}
	if cd := byName[distcolor.AlgoVertexCD]; !cd.NeedsCover {
		t.Error("vertex/cd must advertise needs_cover")
	}
}

// TestCancelRunningJobSurfacesCanceled: canceling a job mid-simulation
// aborts it through its context and the service reports it canceled — not
// failed — with the cancellation counted in the metrics.
func TestCancelRunningJobSurfacesCanceled(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	g, err := gen.NearRegular(400, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := &distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, Graph: distcolor.Spec(g), X: 1}
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the worker to pick the job up and execute rounds, so Cancel
	// exercises the ctx-abort path rather than queue removal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := s.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			if evs, _, _, _ := s.Trace(st.ID, 0); len(evs) > 0 {
				break
			}
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished %s before it could be canceled; enlarge the workload", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("canceled job finished %s (%s), want %s", final.State, final.Error, StateCanceled)
	}
	if final.Error != errJobCanceled.Error() {
		t.Fatalf("canceled job error = %q, want %q", final.Error, errJobCanceled.Error())
	}
	m := s.Metrics()
	if m.Canceled != 1 || m.Failed != 0 {
		t.Fatalf("metrics canceled=%d failed=%d, want 1/0", m.Canceled, m.Failed)
	}
}

// TestCacheKeySeparatesParamsField: parameters arriving through the wire
// Params map must feed the cache key exactly like the legacy shorthand
// fields — two requests differing only in Params must never share a cached
// coloring, and equivalent spellings of one workload must share it.
func TestCacheKeySeparatesParamsField(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	g, err := gen.NearRegular(48, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := distcolor.Spec(g)

	x1 := &distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, Graph: spec, Params: distcolor.Params{"x": 1}}
	st, err := s.Submit(x1)
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, s, st.ID)

	x2 := &distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, Graph: spec, Params: distcolor.Params{"x": 2}}
	st, err = s.Submit(x2)
	if err != nil {
		t.Fatal(err)
	}
	second := waitDone(t, s, st.ID)
	if second.CacheHit {
		t.Fatalf("x=2 via Params was served x=1's cached coloring (%s, palette %d)", second.Algorithm, second.Palette)
	}
	if first.Palette == second.Palette {
		t.Fatalf("x=1 and x=2 report the same palette %d; workload too small to distinguish", first.Palette)
	}

	// The same workload spelled via the shorthand field must hit the
	// Params-spelled entry.
	xShort := &distcolor.Request{Algorithm: distcolor.AlgoEdgeStar, Graph: spec, X: 2}
	st, err = s.Submit(xShort)
	if err != nil {
		t.Fatal(err)
	}
	if third := waitDone(t, s, st.ID); !third.CacheHit {
		t.Fatal("X:2 shorthand did not hit the params{x:2} cache entry")
	}
}
