package distcolor

// The binary wire codec: every value is one length-prefixed, CRC-framed
// record, deliberately reusing the colord WAL's framing discipline
// (internal/service/store.go) so one set of torn/corrupt-read semantics
// covers disk and wire alike.
//
// Frame layout (all integers little-endian):
//
//	[len  uint32]  payload length (the 8 prefix bytes excluded)
//	[crc  uint32]  CRC-32 (IEEE) of the payload
//	[payload]
//
// Payload header (6 bytes, covered by the CRC):
//
//	[magic 0xDC][version][kind][reserved 0][flags uint16]
//
// The version byte gates the whole body layout; a decoder rejects versions
// it does not know. The flags word advertises the feature set the encoder
// used — today the two edge-array encodings below — and a decoder rejects
// any flag bit it does not know, so a future encoder can extend the format
// and old decoders fail loudly instead of misparsing.
//
// Bodies are built from five primitives: unsigned varints, zigzag varints
// (every int field, so the encoding is total), length-prefixed strings,
// fixed 8-byte float64 bits, and one-byte bools. Params maps are written
// in sorted key order, so encoding is deterministic. Edge arrays — the
// dominant bytes of any real request — are encoded in the spec's own edge
// order (edge identifiers index Response.Colors, so reordering is not an
// option) under one of two modes, whichever is smaller for the actual
// list: fixed-width bit-packed endpoints (⌈log₂ n⌉ bits each), or
// per-edge zigzag varint deltas against the previous edge, which wins on
// sorted or locally-ordered lists. Clique covers delta-encode within each
// clique.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"
)

// Frame constants. frameMaxBytes bounds a single payload: far above any
// graph the service accepts (2M edges ≈ 17MB) yet small enough that a
// corrupt length prefix cannot drive a multi-gigabyte allocation.
const (
	frameMagic      = 0xDC
	frameVersion    = 1
	framePrefixLen  = 8 // len + crc
	frameHeaderLen  = 6 // magic, version, kind, reserved, flags
	frameMaxBytes   = 1 << 30
	frameMinPayload = frameHeaderLen
)

// Frame kinds: the five wire types plus the three chunked-ingest stream
// frames (codecstream.go).
const (
	kindGraphSpec byte = 1
	kindRequest   byte = 2
	kindResponse  byte = 3
	kindColoring  byte = 4
	kindJobRecord byte = 5

	kindStreamHeader byte = 6
	kindEdgeChunk    byte = 7
	kindStreamEnd    byte = 8
)

// Feature flags. An encoder sets the bit for every edge-array mode the
// frame's body uses; decoders reject unknown bits.
const (
	flagPackedEdges uint16 = 1 << 0
	flagDeltaEdges  uint16 = 1 << 1
	// flagDeadlineMS marks a body whose Request carries the deadline_ms
	// field (appended after Parallel). Gating the field on a flag keeps
	// deadline-free requests byte-identical to the pre-deadline wire, and
	// makes deadline-carrying frames fail loudly on older decoders instead
	// of misparsing.
	flagDeadlineMS uint16 = 1 << 2
	// flagJobAttempts marks a JobRecord body carrying the attempts counter
	// (appended after CacheHit), under the same compatibility discipline.
	flagJobAttempts uint16 = 1 << 3

	flagsKnown = flagPackedEdges | flagDeltaEdges | flagDeadlineMS | flagJobAttempts
)

// Edge-array modes (the body-level tag; the frame flags advertise the
// union of modes used).
const (
	edgeModePacked byte = 0
	edgeModeDelta  byte = 1
)

// packedMaxBits caps the fixed-width mode's per-endpoint width so the
// bit-packer's 64-bit accumulator never overflows; wider graphs (which do
// not exist — vertex ids are ints) fall back to delta mode.
const packedMaxBits = 56

type binaryCodec struct{}

func (binaryCodec) Name() string        { return "binary" }
func (binaryCodec) ContentType() string { return ContentTypeBinary }

func (binaryCodec) Encode(v any) ([]byte, error) {
	switch t := v.(type) {
	case *GraphSpec:
		e := newBinEnc(kindGraphSpec, 32+10*len(t.Edges))
		e.graphSpec(t)
		return e.frame(), nil
	case GraphSpec:
		return CodecBinary.Encode(&t)
	case *Request:
		e := newBinEnc(kindRequest, 64+10*len(t.Graph.Edges))
		e.request(t)
		return e.frame(), nil
	case Request:
		return CodecBinary.Encode(&t)
	case *Response:
		e := newBinEnc(kindResponse, 64+3*len(t.Colors))
		e.response(t)
		return e.frame(), nil
	case Response:
		return CodecBinary.Encode(&t)
	case *Coloring:
		e := newBinEnc(kindColoring, 64+3*len(t.Colors))
		e.coloring(t)
		return e.frame(), nil
	case Coloring:
		return CodecBinary.Encode(&t)
	case *JobRecord:
		est := 96
		if t.Request != nil {
			est += 64 + 10*len(t.Request.Graph.Edges)
		}
		if t.Response != nil {
			est += 64 + 3*len(t.Response.Colors)
		}
		e := newBinEnc(kindJobRecord, est)
		e.jobRecord(t)
		return e.frame(), nil
	case JobRecord:
		return CodecBinary.Encode(&t)
	}
	_, err := wireKindOf(v)
	if err == nil {
		err = fmt.Errorf("distcolor: binary codec cannot encode %T", v)
	}
	return nil, err
}

func (binaryCodec) Decode(data []byte, v any) error {
	kind, err := wireKindOf(v)
	if err != nil {
		return err
	}
	body, flags, err := decodeFrame(data, kind)
	if err != nil {
		return err
	}
	d := &binDec{buf: body, flags: flags}
	switch t := v.(type) {
	case *GraphSpec:
		*t = d.graphSpec()
	case *Request:
		*t = d.request()
	case *Response:
		*t = d.response()
	case *Coloring:
		*t = d.coloring()
	case *JobRecord:
		*t = d.jobRecord()
	default:
		return fmt.Errorf("distcolor: binary codec cannot decode into %T (need a pointer)", v)
	}
	return d.finish()
}

// --- framing ---

// newBinEnc starts a frame with room reserved for the prefix and payload
// header; frame() seals it in place, so a whole encode is one allocation
// (plus growth).
func newBinEnc(kind byte, sizeHint int) *binEnc {
	buf := make([]byte, framePrefixLen+frameHeaderLen, framePrefixLen+frameHeaderLen+sizeHint)
	return &binEnc{buf: buf, kind: kind}
}

type binEnc struct {
	buf   []byte
	kind  byte
	flags uint16
}

// frame seals the record: fills the payload header, then the length and
// CRC prefix.
func (e *binEnc) frame() []byte {
	payload := e.buf[framePrefixLen:]
	payload[0] = frameMagic
	payload[1] = frameVersion
	payload[2] = e.kind
	payload[3] = 0
	binary.LittleEndian.PutUint16(payload[4:], e.flags)
	binary.LittleEndian.PutUint32(e.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[4:], crc32.ChecksumIEEE(payload))
	return e.buf
}

// decodeFrame validates one self-contained frame (no trailing bytes) and
// returns its body and feature flags.
func decodeFrame(data []byte, wantKind byte) ([]byte, uint16, error) {
	if len(data) < framePrefixLen+frameMinPayload {
		return nil, 0, fmt.Errorf("distcolor: frame truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > frameMaxBytes {
		return nil, 0, fmt.Errorf("distcolor: frame payload %d bytes exceeds limit %d", n, frameMaxBytes)
	}
	if int(n) != len(data)-framePrefixLen {
		return nil, 0, fmt.Errorf("distcolor: frame length %d does not match %d payload bytes", n, len(data)-framePrefixLen)
	}
	payload := data[framePrefixLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, 0, fmt.Errorf("distcolor: frame CRC mismatch (corrupt or torn record)")
	}
	return checkPayloadHeader(payload, wantKind)
}

// checkPayloadHeader validates magic/version/flags and the expected kind,
// returning the body after the header and the frame's feature flags (they
// gate optional body fields, so the decoder needs them).
func checkPayloadHeader(payload []byte, wantKind byte) ([]byte, uint16, error) {
	if len(payload) < frameHeaderLen {
		return nil, 0, fmt.Errorf("distcolor: frame payload %d bytes, below %d-byte header", len(payload), frameHeaderLen)
	}
	if payload[0] != frameMagic {
		return nil, 0, fmt.Errorf("distcolor: bad frame magic 0x%02x", payload[0])
	}
	if payload[1] != frameVersion {
		return nil, 0, fmt.Errorf("distcolor: unsupported frame version %d (this decoder speaks %d)", payload[1], frameVersion)
	}
	if payload[3] != 0 {
		return nil, 0, fmt.Errorf("distcolor: nonzero reserved frame byte 0x%02x", payload[3])
	}
	flags := binary.LittleEndian.Uint16(payload[4:6])
	if flags&^flagsKnown != 0 {
		return nil, 0, fmt.Errorf("distcolor: unknown frame feature flags 0x%04x (this decoder knows 0x%04x)", flags, flagsKnown)
	}
	if payload[2] != wantKind {
		return nil, 0, fmt.Errorf("distcolor: frame kind %d, want %d", payload[2], wantKind)
	}
	return payload[frameHeaderLen:], flags, nil
}

// --- primitives ---

func zigzag(v int64) uint64   { return uint64(v)<<1 ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the encoded size of v, for the edge-mode sizing pass.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (e *binEnc) uv(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *binEnc) zig(v int64)  { e.uv(zigzag(v)) }
func (e *binEnc) byte1(b byte) { e.buf = append(e.buf, b) }

func (e *binEnc) str(s string) {
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *binEnc) f64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

func (e *binEnc) boolb(b bool) {
	if b {
		e.byte1(1)
	} else {
		e.byte1(0)
	}
}

// binDec decodes a frame body with a sticky error: every read after a
// failure is a no-op returning zero values, and finish() reports the first
// failure (or trailing garbage).
type binDec struct {
	buf   []byte
	off   int
	flags uint16 // frame feature flags; gate optional body fields
	err   error
}

func (d *binDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("distcolor: binary decode: "+format, args...)
	}
}

func (d *binDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("distcolor: binary decode: %d trailing bytes after body", len(d.buf)-d.off)
	}
	return nil
}

func (d *binDec) remaining() int { return len(d.buf) - d.off }

func (d *binDec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *binDec) zig() int64 { return unzigzag(d.uv()) }

// intv reads a zigzag varint that must fit in an int.
func (d *binDec) intv() int {
	v := d.zig()
	if int64(int(v)) != v {
		d.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *binDec) byte1() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated body at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *binDec) str() string {
	n := d.uv()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.remaining())
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *binDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return f
}

func (d *binDec) boolb() bool {
	switch d.byte1() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte at offset %d", d.off-1)
		return false
	}
}

// --- edge arrays ---

// packedWidth is the fixed per-endpoint bit width for an n-vertex graph.
func packedWidth(n int) int {
	b := bits.Len(uint(n - 1))
	if b < 1 {
		b = 1
	}
	return b
}

// edgesFitPacked reports whether every endpoint is a valid [0,n) vertex id
// — out-of-range endpoints (a spec whose Build would fail anyway) must
// round-trip faithfully, which only delta mode can do.
func edgesFitPacked(n int, edges [][2]int) bool {
	if n < 1 || packedWidth(n) > packedMaxBits {
		return false
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return false
		}
	}
	return true
}

// deltaEdgesLen is the exact encoded size of the delta mode, for the
// mode-picking pass.
func deltaEdgesLen(edges [][2]int) int {
	var prevU, prevV int64
	total := 0
	for _, e := range edges {
		u, v := int64(e[0]), int64(e[1])
		total += uvarintLen(zigzag(u-prevU)) + uvarintLen(zigzag(v-prevV))
		prevU, prevV = u, v
	}
	return total
}

// edges encodes one edge array: count, mode, data. The mode is chosen by
// exact size — one cheap sizing pass — so the encoder output is a pure
// function of the input, never of heuristics that might drift.
func (e *binEnc) edges(n int, edges [][2]int) {
	e.uv(uint64(len(edges)))
	if len(edges) == 0 {
		e.byte1(edgeModeDelta)
		e.flags |= flagDeltaEdges
		return
	}
	mode := edgeModeDelta
	if edgesFitPacked(n, edges) {
		b := packedWidth(n)
		packed := (2*b*len(edges) + 7) / 8
		if packed < deltaEdgesLen(edges) {
			mode = edgeModePacked
		}
	}
	e.byte1(mode)
	if mode == edgeModePacked {
		e.flags |= flagPackedEdges
		e.packedEdges(n, edges)
		return
	}
	e.flags |= flagDeltaEdges
	e.deltaEdges(edges)
}

func (e *binEnc) packedEdges(n int, edges [][2]int) {
	b := uint(packedWidth(n))
	var acc uint64
	var nbits uint
	put := func(v uint64) {
		acc |= v << nbits
		nbits += b
		for nbits >= 8 {
			e.buf = append(e.buf, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	for _, ed := range edges {
		put(uint64(ed[0]))
		put(uint64(ed[1]))
	}
	if nbits > 0 {
		e.buf = append(e.buf, byte(acc))
	}
}

func (e *binEnc) deltaEdges(edges [][2]int) {
	var prevU, prevV int64
	for _, ed := range edges {
		u, v := int64(ed[0]), int64(ed[1])
		e.zig(u - prevU)
		e.zig(v - prevV)
		prevU, prevV = u, v
	}
}

// edges decodes one edge array; n is the vertex count governing the packed
// width. Lengths are validated against the remaining bytes before any
// allocation, so a corrupt count cannot drive a huge make.
func (d *binDec) edges(n int) [][2]int {
	m64 := d.uv()
	if d.err != nil {
		return nil
	}
	if m64 > uint64(frameMaxBytes) || int64(int(m64)) != int64(m64) {
		d.fail("edge count %d out of range", m64)
		return nil
	}
	m := int(m64)
	mode := d.byte1()
	if d.err != nil {
		return nil
	}
	switch mode {
	case edgeModePacked:
		if n < 1 || packedWidth(n) > packedMaxBits {
			d.fail("packed edges on a %d-vertex graph", n)
			return nil
		}
		b := packedWidth(n)
		if want := (2*b*m + 7) / 8; want > d.remaining() {
			d.fail("packed edge data needs %d bytes, %d remain", want, d.remaining())
			return nil
		}
		return d.packedEdges(n, m)
	case edgeModeDelta:
		// Every delta edge is at least 2 bytes; bounding the count here
		// keeps the allocation proportional to the actual body.
		if m > 0 && m > d.remaining()/2 {
			d.fail("delta edge count %d exceeds %d remaining bytes", m, d.remaining())
			return nil
		}
		return d.deltaEdges(m)
	default:
		d.fail("unknown edge mode %d", mode)
		return nil
	}
}

func (d *binDec) packedEdges(n, m int) [][2]int {
	if m == 0 {
		return nil
	}
	b := uint(packedWidth(n))
	mask := uint64(1)<<b - 1
	edges := make([][2]int, m)
	var acc uint64
	var nbits uint
	get := func() (uint64, bool) {
		for nbits < b {
			if d.remaining() < 1 {
				d.fail("truncated packed edge data")
				return 0, false
			}
			acc |= uint64(d.buf[d.off]) << nbits
			d.off++
			nbits += 8
		}
		v := acc & mask
		acc >>= b
		nbits -= b
		return v, true
	}
	for i := 0; i < m; i++ {
		u, ok := get()
		if !ok {
			return nil
		}
		v, ok := get()
		if !ok {
			return nil
		}
		edges[i] = [2]int{int(u), int(v)}
	}
	// The tail byte's spare bits must be zero: one canonical encoding per
	// edge list, so fixtures and CRCs pin bytes, not just semantics.
	if acc != 0 {
		d.fail("nonzero spare bits after packed edge data")
		return nil
	}
	return edges
}

func (d *binDec) deltaEdges(m int) [][2]int {
	if m == 0 {
		return nil
	}
	edges := make([][2]int, m)
	var prevU, prevV int64
	for i := 0; i < m; i++ {
		du, dv := d.zig(), d.zig()
		if d.err != nil {
			return nil
		}
		u, v := prevU+du, prevV+dv
		if int64(int(u)) != u || int64(int(v)) != v {
			d.fail("edge %d endpoint overflows int", i)
			return nil
		}
		edges[i] = [2]int{int(u), int(v)}
		prevU, prevV = u, v
	}
	return edges
}

// --- composite fields ---

func (e *binEnc) cliques(cl [][]int32) {
	e.uv(uint64(len(cl)))
	for _, c := range cl {
		e.uv(uint64(len(c)))
		var prev int64
		for _, v := range c {
			e.zig(int64(v) - prev)
			prev = int64(v)
		}
	}
}

func (d *binDec) cliques() [][]int32 {
	k64 := d.uv()
	if d.err != nil || k64 == 0 {
		return nil
	}
	if k64 > uint64(d.remaining()) {
		d.fail("clique count %d exceeds %d remaining bytes", k64, d.remaining())
		return nil
	}
	cl := make([][]int32, int(k64))
	for i := range cl {
		n64 := d.uv()
		if d.err != nil {
			return nil
		}
		if n64 > uint64(d.remaining()) {
			d.fail("clique size %d exceeds %d remaining bytes", n64, d.remaining())
			return nil
		}
		c := make([]int32, int(n64))
		var prev int64
		for j := range c {
			v := prev + d.zig()
			if int64(int32(v)) != v {
				d.fail("clique %d vertex overflows int32", i)
				return nil
			}
			c[j] = int32(v)
			prev = v
		}
		cl[i] = c
	}
	return cl
}

func (e *binEnc) params(p Params) {
	e.uv(uint64(len(p)))
	if len(p) == 0 {
		return
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.str(k)
		e.f64(p[k])
	}
}

func (d *binDec) params() Params {
	k64 := d.uv()
	if d.err != nil || k64 == 0 {
		return nil
	}
	if k64 > uint64(d.remaining()) {
		d.fail("params count %d exceeds %d remaining bytes", k64, d.remaining())
		return nil
	}
	p := make(Params, int(k64))
	for i := uint64(0); i < k64; i++ {
		k := d.str()
		v := d.f64()
		if d.err != nil {
			return nil
		}
		p[k] = v
	}
	return p
}

func (e *binEnc) colors(c []int64) {
	e.uv(uint64(len(c)))
	for _, v := range c {
		e.zig(v)
	}
}

func (d *binDec) colors() []int64 {
	k64 := d.uv()
	if d.err != nil || k64 == 0 {
		return nil
	}
	if k64 > uint64(d.remaining()) {
		d.fail("color count %d exceeds %d remaining bytes", k64, d.remaining())
		return nil
	}
	c := make([]int64, int(k64))
	for i := range c {
		c[i] = d.zig()
	}
	return c
}

func (e *binEnc) stats(st Stats) {
	e.zig(int64(st.Rounds))
	e.zig(st.Messages)
	e.zig(st.Bits)
	e.zig(st.MaxMessageBits)
	e.zig(st.CongestViolations)
}

func (d *binDec) stats() Stats {
	return Stats{
		Rounds:            d.intv(),
		Messages:          d.zig(),
		Bits:              d.zig(),
		MaxMessageBits:    d.zig(),
		CongestViolations: d.zig(),
	}
}

// --- wire-type bodies ---

func (e *binEnc) graphSpec(s *GraphSpec) {
	e.zig(int64(s.N))
	e.edges(s.N, s.Edges)
	e.cliques(s.Cliques)
}

func (d *binDec) graphSpec() GraphSpec {
	n := d.intv()
	return GraphSpec{N: n, Edges: d.edges(n), Cliques: d.cliques()}
}

func (e *binEnc) request(r *Request) {
	e.str(r.Algorithm)
	e.graphSpec(&r.Graph)
	e.requestTail(r)
}

func (d *binDec) request() Request {
	r := Request{Algorithm: d.str(), Graph: d.graphSpec()}
	d.requestTail(&r)
	return r
}

// requestTail encodes the request fields after the graph, the tail both
// the Request frame and the stream header (codecstream.go) carry.
func (e *binEnc) requestTail(r *Request) {
	e.params(r.Params)
	e.zig(int64(r.X))
	e.zig(int64(r.Arboricity))
	e.f64(r.Q)
	e.boolb(r.Parallel)
	// The deadline rides behind its feature flag: a zero deadline encodes
	// nothing, so pre-deadline fixtures and wire bytes are unchanged.
	if r.DeadlineMS != 0 {
		e.flags |= flagDeadlineMS
		e.zig(r.DeadlineMS)
	}
}

func (d *binDec) requestTail(r *Request) {
	r.Params = d.params()
	r.X = d.intv()
	r.Arboricity = d.intv()
	r.Q = d.f64()
	r.Parallel = d.boolb()
	if d.flags&flagDeadlineMS != 0 {
		r.DeadlineMS = d.zig()
	}
}

func (e *binEnc) response(r *Response) {
	e.str(string(r.Kind))
	e.str(r.Algorithm)
	e.colors(r.Colors)
	e.zig(r.Palette)
	e.stats(r.Stats)
	e.zig(int64(r.Delta))
	e.zig(int64(r.Arboricity))
}

func (d *binDec) response() Response {
	return Response{
		Kind:       Kind(d.str()),
		Algorithm:  d.str(),
		Colors:     d.colors(),
		Palette:    d.zig(),
		Stats:      d.stats(),
		Delta:      d.intv(),
		Arboricity: d.intv(),
	}
}

func (e *binEnc) coloring(c *Coloring) {
	e.str(string(c.Kind))
	e.colors(c.Colors)
	e.zig(c.Palette)
	e.stats(c.Stats)
	e.str(c.Algorithm)
	e.params(c.Params)
}

func (d *binDec) coloring() Coloring {
	return Coloring{
		Kind:      Kind(d.str()),
		Colors:    d.colors(),
		Palette:   d.zig(),
		Stats:     d.stats(),
		Algorithm: d.str(),
		Params:    d.params(),
	}
}

func (e *binEnc) jobRecord(jr *JobRecord) {
	e.zig(int64(jr.Schema))
	e.str(jr.ID)
	e.str(jr.State)
	e.boolb(jr.Request != nil)
	if jr.Request != nil {
		e.request(jr.Request)
	}
	e.str(jr.Error)
	e.boolb(jr.Response != nil)
	if jr.Response != nil {
		e.response(jr.Response)
	}
	e.zig(jr.WallMS)
	e.boolb(jr.CacheHit)
	if jr.Attempts != 0 {
		e.flags |= flagJobAttempts
		e.zig(jr.Attempts)
	}
}

func (d *binDec) jobRecord() JobRecord {
	jr := JobRecord{
		Schema: d.intv(),
		ID:     d.str(),
		State:  d.str(),
	}
	if d.boolb() {
		req := d.request()
		jr.Request = &req
	}
	jr.Error = d.str()
	if d.boolb() {
		resp := d.response()
		jr.Response = &resp
	}
	jr.WallMS = d.zig()
	jr.CacheHit = d.boolb()
	if d.flags&flagJobAttempts != 0 {
		jr.Attempts = d.zig()
	}
	return jr
}
