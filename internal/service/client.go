package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	distcolor "repro"
)

// Client talks to a running colord instance over its wire API. It is what
// cmd/colorbench uses in -server mode, and doubles as the reference client
// for the wire protocol. Every method is context-aware, and requests shed
// by the server's admission control (HTTP 429) are retried with backoff,
// honoring the server's Retry-After hint — a 429 means the work was not
// accepted, so retrying can never duplicate a job.
//
// Submissions auto-negotiate their encoding by payload size: small requests
// go as JSON (debuggable, the historical wire), large ones as a binary
// frame, and very large ones as a chunked binary stream that the server
// admits per edge chunk — the only way past the server's in-flight byte
// bound. Set Codec to pin a choice.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// MaxRetries bounds how many times a 429-shed request is retried
	// before the error surfaces (0 selects the default 4; negative
	// disables retrying — overload tests and load generators want to see
	// every 429).
	MaxRetries int
	// RetryBase is the first backoff delay (default 100ms), doubling per
	// attempt up to 5s; the server's Retry-After header overrides the
	// computed backoff when larger.
	RetryBase time.Duration
	// Codec pins the submission encoding: "json", "binary", or "" for
	// size-based auto-negotiation. "json" also turns off the binary Accept
	// header on Result. ("binary" still upgrades to the chunked stream for
	// graphs over the streaming threshold — a frame that large defeats the
	// point.)
	Codec string
	// ChunkEdges is the edge-chunk size for streamed submissions
	// (distcolor.DefaultChunkEdges when 0).
	ChunkEdges int
}

// Auto-negotiation thresholds, in edges. Below autoBinaryEdges JSON wins on
// debuggability and loses nothing measurable; past it the binary frame's
// 3-4x size and ~9x encode+decode advantage dominates; past autoStreamEdges
// the request is big enough that buffering it server-side fights the
// admission bound, so it streams.
const (
	autoBinaryEdges = 65_536
	autoStreamEdges = 262_144
)

// HTTPError is a non-2xx response from the server, with the decoded error
// body when one was sent. Retries are exhausted before it surfaces.
type HTTPError struct {
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint on a 429, zero otherwise
	// (or when the header was absent). Load generators read it to report
	// the shed-backoff distribution the server is handing out.
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("colord: HTTP %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("colord: HTTP %d", e.Code)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

func (c *Client) retries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 100 * time.Millisecond
}

// sleepCtx waits d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryDelay picks the wait before the attempt'th retry of a shed request:
// exponential backoff from RetryBase capped at 5s, stretched to the
// server's Retry-After header when that is larger.
func (c *Client) retryDelay(attempt int, resp *http.Response) time.Duration {
	d := c.retryBase() << attempt
	if max := 5 * time.Second; d > max {
		d = max
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && time.Duration(secs)*time.Second > d {
			d = time.Duration(secs) * time.Second
		}
	}
	return d
}

// bodySpec describes a request body for roundTrip: the factory is invoked
// per attempt, so a retried request never reuses a consumed reader, and
// length (when >= 0) becomes the Content-Length header — set whenever it is
// known, even for streamed bodies, so the server can account the upload
// without chunked transfer encoding.
type bodySpec struct {
	contentType string
	length      int64
	mk          func() (io.Reader, error)
}

// bytesBody is the bodySpec for an already-materialized payload.
func bytesBody(contentType string, data []byte) *bodySpec {
	return &bodySpec{
		contentType: contentType,
		length:      int64(len(data)),
		mk:          func() (io.Reader, error) { return bytes.NewReader(data), nil },
	}
}

// roundTrip sends a request and decodes the response body into out (skipped
// when out is nil), dispatching on the response Content-Type — JSON or a
// binary frame. Non-2xx responses decode the server's error body into an
// *HTTPError; 429s are retried first, rebuilding the body each attempt.
func (c *Client) roundTrip(ctx context.Context, method, path string, body *bodySpec, accept string, out any) error {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			r, err := body.mk()
			if err != nil {
				return err
			}
			rd = r
		}
		req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", body.contentType)
			if body.length >= 0 {
				req.ContentLength = body.length
			}
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries() {
			delay := c.retryDelay(attempt, resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err := sleepCtx(ctx, delay); err != nil {
				return err
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			he := &HTTPError{Code: resp.StatusCode}
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
			var eb errorBody
			if json.NewDecoder(resp.Body).Decode(&eb) == nil {
				he.Message = eb.Error
			}
			return fmt.Errorf("colord: %s %s: %w", method, path, he)
		}
		if out == nil {
			return nil
		}
		return decodeResponse(resp, out)
	}
}

// decodeResponse decodes a 2xx body by its Content-Type.
func decodeResponse(resp *http.Response, out any) error {
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err == nil && mt == distcolor.ContentTypeBinary {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return distcolor.CodecBinary.Decode(data, out)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// do is the JSON-envelope path (batch, generate, status, metrics, …): the
// payload is a service envelope type, not a distcolor wire type, so it is
// marshaled here rather than through a distcolor.Codec.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body *bodySpec
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytesBody("application/json", b)
	}
	return c.roundTrip(ctx, method, path, body, "", out)
}

// Submit sends one workload and returns its job status (already done on a
// cache hit). The encoding follows Codec, or auto-negotiates by size.
func (c *Client) Submit(ctx context.Context, req *distcolor.Request) (JobStatus, error) {
	var st JobStatus
	m := len(req.Graph.Edges)
	mode := c.Codec
	switch {
	case mode == "":
		switch {
		case m >= autoStreamEdges:
			mode = "stream"
		case m >= autoBinaryEdges:
			mode = "binary"
		default:
			mode = "json"
		}
	case mode == "binary" && m >= autoStreamEdges:
		mode = "stream"
	}
	switch mode {
	case "stream":
		return c.SubmitStream(ctx, req)
	case "binary":
		data, err := distcolor.CodecBinary.Encode(req)
		if err != nil {
			return st, err
		}
		err = c.roundTrip(ctx, http.MethodPost, "/v1/jobs", bytesBody(distcolor.ContentTypeBinary, data), "", &st)
		return st, err
	case "json":
		data, err := distcolor.CodecJSON.Encode(req)
		if err != nil {
			return st, err
		}
		err = c.roundTrip(ctx, http.MethodPost, "/v1/jobs", bytesBody(distcolor.ContentTypeJSON, data), "", &st)
		return st, err
	default:
		return st, fmt.Errorf("colord: unknown codec %q", c.Codec)
	}
}

// SubmitStream sends req as a chunked binary frame stream: the body is
// produced incrementally through a pipe — never buffered whole — while
// Content-Length is still set exactly (RequestStreamLen pre-computes it),
// and the server admits the graph chunk by chunk. This is the submission
// path for graphs whose admission cost exceeds the server's in-flight byte
// bound; Submit upgrades to it automatically past autoStreamEdges.
func (c *Client) SubmitStream(ctx context.Context, req *distcolor.Request) (JobStatus, error) {
	chunk := c.ChunkEdges
	body := &bodySpec{
		contentType: distcolor.ContentTypeBinary,
		length:      distcolor.RequestStreamLen(req, chunk),
		mk: func() (io.Reader, error) {
			pr, pw := io.Pipe()
			// The writer is bounded by the pipe, not a join: every Write
			// blocks until the transport reads or the request aborts and
			// closes pr, which errors the write and ends the goroutine.
			//distcolor:detached pipe-bounded: write errors out when roundTrip closes pr
			go func() { pw.CloseWithError(distcolor.WriteRequestStream(pw, req, chunk)) }()
			return pr, nil
		},
	}
	var st JobStatus
	err := c.roundTrip(ctx, http.MethodPost, "/v1/jobs", body, "", &st)
	return st, err
}

// Batch submits many workloads in one call. Outcomes are per-item — check
// each BatchJob for Error/Retryable; a 200 batch response can still carry
// shed items.
func (c *Client) Batch(ctx context.Context, reqs []distcolor.Request) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/batch", BatchRequest{Requests: reqs}, &out)
	return out, err
}

// Generate asks the server to synthesize and submit workloads.
func (c *Client) Generate(ctx context.Context, req GenerateRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/generate", req, &out)
	return out, err
}

// Status fetches a job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel requests cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Result fetches the coloring of a done job. Unless Codec pins "json", it
// asks for the binary frame encoding (Accept) and decodes whichever the
// server chose from the response Content-Type.
func (c *Client) Result(ctx context.Context, id string) (*distcolor.Response, error) {
	accept := distcolor.ContentTypeBinary
	if c.Codec == "json" {
		accept = ""
	}
	var resp distcolor.Response
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, accept, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the server counters.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// Healthz fetches the admission readiness view. A shedding server answers
// 503 with the same Health body, which is not an error here — callers read
// Ready.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/healthz"), nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return Health{}, &HTTPError{Code: resp.StatusCode}
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, err
	}
	return h, nil
}

// Algorithms fetches the server's algorithm registry metadata: every
// registered algorithm with its kind and parameter schema, so clients can
// discover and validate workloads without hardcoding algorithm knowledge.
func (c *Client) Algorithms(ctx context.Context) ([]distcolor.AlgorithmInfo, error) {
	var out []distcolor.AlgorithmInfo
	err := c.do(ctx, http.MethodGet, "/v1/algorithms", nil, &out)
	return out, err
}

// Wait polls until the job is terminal or ctx is done, returning the last
// observed status; bound the wait with a ctx deadline. Between polls it
// sleeps poll (default 50ms), waking early on ctx cancellation.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := sleepCtx(ctx, poll); err != nil {
			return st, err
		}
	}
}

// Trace streams the job's round trace, invoking fn for every event until
// the stream's end line; it returns the job's final state. Lifecycle span
// lines are skipped — use TraceSpans to receive them. Canceling ctx tears
// the stream down.
func (c *Client) Trace(ctx context.Context, id string, fn func(TraceEvent)) (State, error) {
	return c.TraceSpans(ctx, id, fn, nil)
}

// TraceSpans streams the job's round trace like Trace, additionally
// invoking sfn for each lifecycle span the server appends once the job is
// terminal (admit, queue, execute, verify, serve under a root "job" span).
func (c *Client) TraceSpans(ctx context.Context, id string, fn func(TraceEvent), sfn func(Span)) (State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/trace"), nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("colord: trace %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Span lines must be probed before TraceEvent: a {"span":…} line has
		// no TraceEvent keys, so it would otherwise decode as a zero event.
		if bytes.HasPrefix(line, []byte(`{"span"`)) {
			var sl spanLine
			if err := json.Unmarshal(line, &sl); err != nil {
				return "", fmt.Errorf("colord: trace %s: bad span line %q: %w", id, line, err)
			}
			if sfn != nil && sl.Span != nil {
				sfn(*sl.Span)
			}
			continue
		}
		var end traceEnd
		if json.Unmarshal(line, &end) == nil && end.Done {
			return end.State, nil
		}
		var ev TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", fmt.Errorf("colord: trace %s: bad line %q: %w", id, line, err)
		}
		if fn != nil {
			fn(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("colord: trace %s: stream ended without a terminal line", id)
}
