package distcolor

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"mime"
)

// This file is the stable wire codec of the library: the
// Request/Response pair, the Codec interface with its JSON implementation
// (the binary implementation lives in codecbin.go, the chunked streaming
// form in codecstream.go), plus Execute, which dispatches a Request
// through the algorithm registry (registry.go). The codec holds no
// per-algorithm knowledge: algorithm names, parameter validation, and
// applicability all come from the registered descriptors, so a newly
// registered algorithm is wire-reachable with no codec changes. The colord
// service (internal/service, cmd/colord) speaks exactly these types over
// HTTP; keeping them here makes the same codec usable in-process, which is
// how cmd/colorbench can target either a live daemon or the library with
// one workload description.
//
// Codec is the single encode/decode surface for the wire types: every
// serialization of a GraphSpec, Request, Response, Coloring, or JobRecord
// — HTTP bodies, the WAL journal, in-process ExecuteBytes — dispatches
// through a Codec, never through raw json.Marshal (`make lint` checks
// this). See DESIGN.md §11 for the binary frame grammar and the streaming
// admission protocol.

// GraphSpec is the wire form of a graph: a vertex count and an edge list.
// For cover-requiring algorithms (vertex/cd) it additionally carries the
// clique cover.
type GraphSpec struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
	// Cliques is the clique cover for algorithms registered with
	// NeedsCover (each list is one clique's vertices); ignored by every
	// other algorithm.
	Cliques [][]int32 `json:"cliques,omitempty"`
}

// Spec converts a built graph back to its wire form.
func Spec(g *Graph) GraphSpec {
	s := GraphSpec{N: g.N(), Edges: make([][2]int, 0, g.M())}
	for _, e := range g.Edges() {
		s.Edges = append(s.Edges, [2]int{int(e.U), int(e.V)})
	}
	return s
}

// Build validates the spec and constructs the immutable graph. Endpoints
// are range-checked against [0, N) here, before the builder's int32
// narrowing, so out-of-range wire values fail instead of silently wrapping
// onto a different vertex.
func (s GraphSpec) Build() (*Graph, error) {
	b := NewBuilder(s.N)
	for i, e := range s.Edges {
		if e[0] < 0 || e[0] >= s.N || e[1] < 0 || e[1] >= s.N {
			return nil, fmt.Errorf("distcolor: edge %d endpoints {%d,%d} out of range [0,%d)", i, e[0], e[1], s.N)
		}
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Request describes one coloring workload in a stable, JSON-serializable
// form.
type Request struct {
	// Algorithm is a registered algorithm name (see Algorithms, or the
	// colord /v1/algorithms endpoint for the full schemas).
	Algorithm string    `json:"algorithm"`
	Graph     GraphSpec `json:"graph"`
	// Params carries algorithm parameters by schema name, validated
	// strictly against the registered parameter schema (unknown names,
	// NaN, and out-of-range values are rejected). The legacy shorthand
	// fields below overlay it when nonzero.
	Params Params `json:"params,omitempty"`
	// X is the legacy shorthand for Params["x"], the recursion-depth
	// parameter of edge/star and vertex/cd (0 selects the default). Like
	// all shorthand fields it keeps its pre-registry tolerance: an
	// algorithm whose schema has no such parameter ignores it instead of
	// rejecting the request.
	//
	// Deprecated on the wire (but permanently supported): set
	// Params["x"] instead. The colord service answers requests that use
	// any shorthand field with a `Deprecation: true` response header; see
	// the README migration table.
	X int `json:"x,omitempty"`
	// Arboricity is the legacy shorthand for Params["arboricity"] fed to
	// the sparse algorithms; 0 means "estimate with ArboricityUpperBound".
	//
	// Deprecated on the wire (but permanently supported): set
	// Params["arboricity"] instead.
	Arboricity int `json:"arboricity,omitempty"`
	// Q is the legacy shorthand for Params["q"], the Section 5 threshold
	// multiplier (0 selects the default 3).
	//
	// Deprecated on the wire (but permanently supported): set Params["q"]
	// instead.
	Q float64 `json:"q,omitempty"`
	// Parallel selects the goroutine-sharded engine.
	Parallel bool `json:"parallel,omitempty"`
	// DeadlineMS bounds the job's execution wall time in milliseconds
	// (0 = no per-request deadline; the server may still apply its own
	// -job-timeout default). A job that exceeds it terminates in the
	// distinct deadline_exceeded state. On the binary wire the field is
	// flag-gated (flagDeadlineMS): requests without a deadline encode
	// byte-identically to the pre-deadline format, and a deadline-carrying
	// frame fails loudly on decoders that predate the flag.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// params merges the legacy shorthand fields over the Params map into one
// schema-keyed parameter set for algorithm a. Shorthand fields merge only
// when a's schema declares the parameter: pre-registry clients set them on
// requests whose algorithm ignored them (e.g. one batch template swept
// across algorithms), and the stable codec keeps tolerating that. Entries
// of the Params map itself are strict — resolution rejects unknown names.
func (r *Request) params(a Algorithm) Params {
	p := make(Params, len(r.Params)+3)
	for k, v := range r.Params {
		p[k] = v
	}
	merge := func(name string, v float64) {
		if v == 0 {
			return
		}
		if _, ok := a.param(name); ok {
			p[name] = v
		}
	}
	merge("x", float64(r.X))
	merge("arboricity", float64(r.Arboricity))
	merge("q", r.Q)
	return p
}

// ResolvedParams returns the request's parameter set exactly as the
// registry resolves it: the legacy shorthand fields merged over Params,
// schema defaults applied, and clamps performed. Requests that provably
// run identically resolve to equal parameter sets, which is what the
// colord result cache keys on.
func (r *Request) ResolvedParams() (Params, error) {
	a, ok := LookupAlgorithm(r.Algorithm)
	if !ok {
		return nil, &UnknownAlgorithmError{Name: r.Algorithm}
	}
	return a.resolve(r.params(a))
}

// JobRecordSchema versions the persisted job record layout. Bump it when a
// field changes meaning or serialized form; readers must reject records with
// a schema they do not understand rather than guess (the colord write-ahead
// job store does exactly that on replay).
const JobRecordSchema = 1

// JobRecord is the stable persisted form of one service job: what the
// colord write-ahead log journals at submission, on state transitions, and
// at the terminal result. It is defined beside the wire codec because it is
// one — a JobRecord must survive process restarts and version skew exactly
// like a Request on the wire, so it carries an explicit Schema and reuses
// the stable Request/Response types rather than any in-memory job shape.
//
// A journal entry is a partial record merged by ID during replay: the
// submission entry carries Request, later entries carry only the state
// delta, and the terminal entry carries the outcome (Error or Response).
// Compaction condenses a job's entries into one full record.
type JobRecord struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	// State is the service-layer lifecycle phase
	// (queued|running|done|failed|canceled), or the journal-only marker
	// "forgotten" recording that the service dropped the job from its
	// bounded retention (replay then drops it too).
	State    string    `json:"state"`
	Request  *Request  `json:"request,omitempty"`
	Error    string    `json:"error,omitempty"`
	Response *Response `json:"response,omitempty"`
	WallMS   int64     `json:"wall_ms,omitempty"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	// Attempts counts execution starts journaled for this job. Replay uses
	// it to quarantine poison jobs: a non-terminal record that already
	// started twice is marked failed instead of re-enqueued, so a job whose
	// handler panics cannot crash-loop the daemon across restarts. On the
	// binary wire the field is flag-gated (flagJobAttempts), keeping
	// attempt-free records byte-identical to the pre-attempts format.
	Attempts int64 `json:"attempts,omitempty"`
}

// Response is the result of executing a Request. Kind tells whether Colors
// is indexed by edge identifiers or by vertices.
type Response struct {
	// Kind is "edge" or "vertex".
	Kind Kind `json:"kind"`
	// Algorithm echoes the procedure that actually ran (for the adaptive
	// sparse entry point this is the chosen plan, e.g. "thm5.3").
	Algorithm string  `json:"algorithm"`
	Colors    []int64 `json:"colors"`
	Palette   int64   `json:"palette"`
	Stats     Stats   `json:"stats"`
	// Delta and Arboricity record the structural parameters the run used.
	Delta      int `json:"delta"`
	Arboricity int `json:"arboricity,omitempty"`
}

// Validate checks a Request without running it: the algorithm must be
// registered, the graph well-formed, and the parameters valid under the
// algorithm's schema.
func (r *Request) Validate() error {
	a, ok := LookupAlgorithm(r.Algorithm)
	if !ok {
		return &UnknownAlgorithmError{Name: r.Algorithm}
	}
	if r.Graph.N < 0 {
		return fmt.Errorf("distcolor: negative vertex count %d", r.Graph.N)
	}
	// Shorthand fields are range-checked even when the algorithm ignores
	// them (pre-registry behavior); schema validation covers the rest.
	if r.X < 0 {
		return fmt.Errorf("distcolor: negative x %d", r.X)
	}
	if r.Arboricity < 0 {
		return fmt.Errorf("distcolor: negative arboricity %d", r.Arboricity)
	}
	// q must also be finite: the binary wire carries NaN and ±Inf, which
	// the JSON job journal cannot encode.
	if !(r.Q >= 0) || math.IsInf(r.Q, 1) {
		return fmt.Errorf("distcolor: shorthand q %v is negative or not finite", r.Q)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("distcolor: negative deadline_ms %d", r.DeadlineMS)
	}
	if _, err := a.resolve(r.params(a)); err != nil {
		return err
	}
	if a.NeedsCover && len(r.Graph.Cliques) == 0 {
		return fmt.Errorf("distcolor: %s requires a clique cover", r.Algorithm)
	}
	return nil
}

// Execute runs the Request against the registry and verifies the coloring
// before returning; a Response from Execute is always a proper coloring
// within its declared palette. ctx cancels or deadlines the simulation at
// round granularity. opt supplies execution extras (Observer); the
// Request's own Parallel and parameter fields take precedence over opt's.
func Execute(ctx context.Context, r *Request, opt Options) (*Response, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	g, err := r.Graph.Build()
	if err != nil {
		return nil, err
	}
	return ExecuteOn(ctx, r, g, opt)
}

// ExecuteOn is Execute for callers that already built r.Graph (the colord
// service builds it at submission for validation and canonicalization and
// reuses it here); g must be the graph r.Graph describes.
func ExecuteOn(ctx context.Context, r *Request, g *Graph, opt Options) (*Response, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	a, _ := LookupAlgorithm(r.Algorithm)
	opt.Parallel = r.Parallel
	if a.NeedsCover {
		cover, err := NewCliqueCover(g, r.Graph.Cliques)
		if err != nil {
			return nil, err
		}
		opt.Cover = cover
	}
	col, err := Run(ctx, g, r.Algorithm, r.params(a), opt)
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Kind:      col.Kind,
		Algorithm: col.Algorithm,
		Colors:    col.Colors,
		Palette:   col.Palette,
		Stats:     col.Stats,
		Delta:     g.MaxDegree(),
	}
	// Report dynamically resolved structural parameters without knowing
	// which algorithms have them: the resolved parameter set carries the
	// estimate back.
	if arb, ok := col.Params["arboricity"]; ok {
		resp.Arboricity = int(arb)
	}
	return resp, nil
}

// Wire media types. ContentTypeBinary is the negotiation token for the
// CRC-framed binary encoding: a client submits with it as Content-Type and
// asks for binary results by listing it in Accept; JSON stays the default
// for everything else.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/vnd.distcolor.v1+bin"
)

// Codec is the single public encode/decode surface for the wire types:
// *GraphSpec, *Request, *Response, *Coloring, and *JobRecord (Encode also
// accepts the non-pointer forms). Two implementations exist — CodecJSON,
// the historical human-readable encoding, and CodecBinary, the
// length-prefixed CRC-framed encoding (codecbin.go) — and everything that
// serializes a wire type (HTTP bodies, the WAL journal, ExecuteBytes)
// dispatches through one of them. Both are stateless and safe for
// concurrent use.
type Codec interface {
	// Name is the stable short identifier: "json" or "binary".
	Name() string
	// ContentType is the HTTP media type this codec negotiates under.
	ContentType() string
	// Encode serializes one wire value.
	Encode(v any) ([]byte, error)
	// Decode parses data into the pointed-to wire value. The binary codec
	// rejects trailing bytes, corrupt frames, and version/feature flags it
	// does not know.
	Decode(data []byte, v any) error
}

// CodecJSON encodes the wire types as the stable JSON the service has
// always spoken; golden fixtures under testdata/codec pin the exact shape.
var CodecJSON Codec = jsonCodec{}

// CodecBinary encodes the wire types as length-prefixed, CRC-framed binary
// records (see codecbin.go for the frame grammar).
var CodecBinary Codec = binaryCodec{}

// CodecByName resolves "json" or "binary".
func CodecByName(name string) (Codec, bool) {
	switch name {
	case CodecJSON.Name():
		return CodecJSON, true
	case CodecBinary.Name():
		return CodecBinary, true
	}
	return nil, false
}

// CodecForContentType resolves a Content-Type (or one Accept alternative)
// header value, parameters ignored; ok is false for media types neither
// codec speaks.
func CodecForContentType(contentType string) (Codec, bool) {
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, false
	}
	switch mt {
	case ContentTypeJSON:
		return CodecJSON, true
	case ContentTypeBinary:
		return CodecBinary, true
	}
	return nil, false
}

// jsonCodec adapts encoding/json to the Codec contract. It is restricted
// to the wire types on purpose: the restriction is what lets `make lint`
// state "wire types serialize only through a Codec" and mean it.
type jsonCodec struct{}

func (jsonCodec) Name() string        { return "json" }
func (jsonCodec) ContentType() string { return ContentTypeJSON }

func (jsonCodec) Encode(v any) ([]byte, error) {
	if _, err := wireKindOf(v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func (jsonCodec) Decode(data []byte, v any) error {
	if _, err := wireKindOf(v); err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// wireKindOf maps a wire value to its binary frame kind and doubles as the
// codecs' type gate.
func wireKindOf(v any) (byte, error) {
	switch v.(type) {
	case *GraphSpec, GraphSpec:
		return kindGraphSpec, nil
	case *Request, Request:
		return kindRequest, nil
	case *Response, Response:
		return kindResponse, nil
	case *Coloring, Coloring:
		return kindColoring, nil
	case *JobRecord, JobRecord:
		return kindJobRecord, nil
	}
	return 0, fmt.Errorf("distcolor: %T is not a wire type (want *GraphSpec, *Request, *Response, *Coloring, or *JobRecord)", v)
}

// ExecuteBytes is Execute behind a Codec: it decodes an encoded Request,
// runs it, and returns the encoded Response — the in-process form of the
// service's wire loop, usable with either codec.
func ExecuteBytes(ctx context.Context, c Codec, data []byte, opt Options) ([]byte, error) {
	var req Request
	if err := c.Decode(data, &req); err != nil {
		return nil, err
	}
	resp, err := Execute(ctx, &req, opt)
	if err != nil {
		return nil, err
	}
	return c.Encode(resp)
}
