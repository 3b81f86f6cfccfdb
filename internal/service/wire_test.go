package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	distcolor "repro"
	"repro/internal/gen"
)

// The wire plane (DESIGN.md §11): content negotiation, chunked ingest
// against the admission bound, and the legacy-shorthand deprecation signal.

// TestBinarySubmitAndResult drives a whole job through the binary wire:
// single-frame submit, then a binary result via Accept, and checks it
// matches the JSON result byte-for-value.
func TestBinarySubmitAndResult(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	bc := &Client{Base: ts.URL, Codec: "binary"}
	req := gnpRequest(distcolor.AlgoEdgeGreedy, 64, 0.15, 7)
	st, err := bc.Submit(ctx, req)
	if err != nil {
		t.Fatalf("binary submit: %v", err)
	}
	if st, err = bc.Wait(ctx, st.ID, 0); err != nil || st.State != StateDone {
		t.Fatalf("job %s: %v %v", st.ID, st.State, err)
	}
	binResp, err := bc.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("binary result: %v", err)
	}
	jc := &Client{Base: ts.URL, Codec: "json"}
	jsonResp, err := jc.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("json result: %v", err)
	}
	if !reflect.DeepEqual(binResp, jsonResp) {
		t.Fatalf("binary and JSON results differ:\nbin:  %+v\njson: %+v", binResp, jsonResp)
	}
	m := s.Metrics()
	if m.CodecBinary != 1 {
		t.Fatalf("codec_binary = %d, want 1 (metrics: %+v)", m.CodecBinary, m)
	}
	if m.BytesIn == 0 || m.BytesOut == 0 {
		t.Fatalf("byte counters did not move: %+v", m)
	}
}

// TestChunkedIngestBeatsInflightBound is the acceptance scenario: a graph
// whose admission cost exceeds MaxInflightBytes is accepted via chunked
// streaming ingest, while the same graph submitted as a buffered body (JSON
// or a single binary frame) sheds with 429.
func TestChunkedIngestBeatsInflightBound(t *testing.T) {
	g, err := gen.NearRegular(2000, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	req := &distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.Spec(g)}
	cost := jobCost(req)
	bound := cost / 4 // the whole graph is 4x over the in-flight bound
	s := testServer(t, Config{Workers: 2, CacheEntries: -1, MaxInflightBytes: bound})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	// Buffered JSON: shed, retryable, 429.
	jc := &Client{Base: ts.URL, Codec: "json", MaxRetries: -1}
	_, err = jc.Submit(ctx, req)
	var he *HTTPError
	if !errors.As(err, &he) || he.Code != http.StatusTooManyRequests {
		t.Fatalf("buffered JSON submit of an over-bound graph: %v, want HTTP 429", err)
	}
	if he.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After hint: %+v", he)
	}

	// Chunked binary stream: accepted and runs to completion. Small chunks
	// so the stream admits many times under the bound.
	sc := &Client{Base: ts.URL, ChunkEdges: 256, MaxRetries: -1}
	st, err := sc.SubmitStream(ctx, req)
	if err != nil {
		t.Fatalf("chunked ingest of the same graph: %v", err)
	}
	if st, err = sc.Wait(ctx, st.ID, 0); err != nil || st.State != StateDone {
		t.Fatalf("streamed job %s: %v %v", st.ID, st.State, err)
	}
	if st.M != len(req.Graph.Edges) {
		t.Fatalf("streamed job ran on %d edges, want %d", st.M, len(req.Graph.Edges))
	}
	m := s.Metrics()
	if m.CodecStream != 1 || m.Shed == 0 {
		t.Fatalf("wire accounting after the pair: %+v", m)
	}
	// The charge is released after the terminal fsync, which follows the
	// done transition Wait returns on.
	waitInflightZero(t, s)
}

// TestStreamShedsMidIngestWhenContended: a stream only gets past the bound
// by its OWN size — other in-flight work still crowds it out, and the shed
// returns every chunk charge.
func TestStreamShedsMidIngestWhenContended(t *testing.T) {
	filler := cycleRequest(64)
	bound := jobCost(filler) + jobCostBase // room for the filler plus almost nothing
	s := frozenServer(t, Config{QueueDepth: 8, MaxInflightBytes: bound})
	if _, err := s.Submit(filler); err != nil {
		t.Fatalf("filler: %v", err)
	}
	before := s.Metrics().InflightBytes

	g, err := gen.NearRegular(512, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	big := &distcolor.Request{Algorithm: distcolor.AlgoEdgeGreedy, Graph: distcolor.Spec(g)}
	var buf bytes.Buffer
	if err := distcolor.WriteRequestStream(&buf, big, 64); err != nil {
		t.Fatal(err)
	}
	rr := distcolor.NewRequestReader(&buf)
	skel, err := rr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SubmitStream(rr, skel)
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Reason != "inflight-bytes" {
		t.Fatalf("contended stream: %v, want inflight-bytes shed", err)
	}
	if got := s.Metrics().InflightBytes; got != before {
		t.Fatalf("shed stream leaked charge: %d, want %d", got, before)
	}
}

// TestDeprecationHeader: requests using the legacy shorthand fields get the
// Deprecation response header on every submit path; params-only requests do
// not.
func TestDeprecationHeader(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(t *testing.T, body []byte, contentType string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	legacy := gnpRequest(distcolor.AlgoEdgeStar, 24, 0.2, 1)
	legacy.X = 1 // deprecated shorthand
	data, err := distcolor.CodecJSON.Encode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(t, data, "application/json"); resp.Header.Get("Deprecation") != "true" {
		t.Fatalf("legacy JSON submit: Deprecation header %q, want true", resp.Header.Get("Deprecation"))
	}
	bin, err := distcolor.CodecBinary.Encode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(t, bin, distcolor.ContentTypeBinary); resp.Header.Get("Deprecation") != "true" {
		t.Fatal("legacy binary submit missing Deprecation header")
	}

	modern := gnpRequest(distcolor.AlgoEdgeStar, 24, 0.2, 2)
	modern.Params = distcolor.Params{"x": 1}
	data, err = distcolor.CodecJSON.Encode(modern)
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(t, data, "application/json"); resp.Header.Get("Deprecation") != "" {
		t.Fatal("params-only submit flagged as deprecated")
	}
}

// TestNonFiniteShorthandQRejected: the binary wire carries a NaN or ±Inf
// shorthand q, which the JSON job journal cannot encode. Submitted to a
// journaled server, such a request is a validation error: the server stays
// ready, is not degraded, and journals nothing.
func TestNonFiniteShorthandQRejected(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{Workers: 1, DataDir: dir})
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sent := gnpRequest(distcolor.AlgoEdgeStar, 24, 0.2, 1)
		sent.Q = q
		bin, err := distcolor.CodecBinary.Encode(sent)
		if err != nil {
			t.Fatal(err)
		}
		var req distcolor.Request
		if err := distcolor.CodecBinary.Decode(bin, &req); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(&req); err == nil || !strings.Contains(err.Error(), "shorthand q") {
			t.Fatalf("q=%v: submit error %v, want the validation error", q, err)
		}
		if h := s.Health(); !h.Ready || h.Degraded {
			t.Fatalf("q=%v: healthz %+v after the rejection", q, h)
		}
	}
	if m := s.Metrics(); m.Degraded != 0 || m.Rejected != 3 {
		t.Fatalf("degraded gauge %d, rejected %d; want 0 and 3", m.Degraded, m.Rejected)
	}
	s.Close()
	st, recs := openForTest(t, dir, 0)
	defer st.Close()
	if len(recs) != 0 {
		t.Fatalf("journal holds %d records, want none", len(recs))
	}
}

// TestSubmitContentTypeRejected: an unknown Content-Type is a 415, not a
// silent JSON parse.
func TestSubmitContentTypeRejected(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", bytes.NewReader([]byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain submit: HTTP %d, want 415", resp.StatusCode)
	}
}

// TestAutoNegotiation pins the client's size thresholds: tiny graphs go as
// JSON, large as a binary frame, huge as a stream — observed through the
// server's codec counters.
func TestAutoNegotiation(t *testing.T) {
	s := testServer(t, Config{Workers: 2, CacheEntries: -1, MaxVertices: -1, MaxEdges: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	c := &Client{Base: ts.URL}

	small := cycleRequest(16)
	if _, err := c.Submit(ctx, small); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CodecJSON != 1 || m.CodecBinary != 0 || m.CodecStream != 0 {
		t.Fatalf("small request codec counters: %+v", m)
	}

	// autoBinaryEdges ≤ edges < autoStreamEdges → one binary frame.
	mid := cycleRequest(autoBinaryEdges) // a cycle has exactly n edges
	if _, err := c.Submit(ctx, mid); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CodecBinary != 1 || m.CodecStream != 0 {
		t.Fatalf("mid request codec counters: %+v", m)
	}

	big := cycleRequest(autoStreamEdges)
	if _, err := c.Submit(ctx, big); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CodecStream != 1 {
		t.Fatalf("big request codec counters: %+v", m)
	}
}
