package distcolor

// Chunked request streaming: the binary codec's answer to graphs whose
// admission cost exceeds the server's in-flight byte bound. Instead of one
// Request frame the client writes
//
//	[stream header]  the request minus its edges, plus the declared edge
//	                 count — everything the server needs to validate size
//	                 limits and reserve a queue slot before reading bulk data
//	[edge chunk]*    consecutive slices of the edge list, each a
//	                 self-contained frame the server admits individually
//	[stream end]     the total edge count again, as an end-to-end tally
//
// Every frame uses the codecbin.go grammar (magic, version, kind, flags,
// CRC), so corruption is caught per chunk, and the server charges
// admission per chunk as it reads — it never has to buy the whole graph's
// bytes in one admission decision. See DESIGN.md §11 for the protocol and
// internal/service for the admission half.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// DefaultChunkEdges is the edge-chunk size used when a caller passes
// chunkEdges <= 0: at the admission charge of 96 bytes/edge one chunk
// charges ~3MB, comfortably under any production in-flight bound while
// keeping per-chunk framing overhead negligible.
const DefaultChunkEdges = 32768

// WriteRequestStream encodes req as a chunked binary frame stream on w,
// slicing the edge list into chunks of at most chunkEdges edges
// (DefaultChunkEdges when <= 0). The stream decodes back to exactly req —
// edge order included, since edge identifiers index the response's colors.
func WriteRequestStream(w io.Writer, req *Request, chunkEdges int) error {
	if chunkEdges <= 0 {
		chunkEdges = DefaultChunkEdges
	}
	edges := req.Graph.Edges
	h := newBinEnc(kindStreamHeader, 96+16*len(req.Graph.Cliques))
	h.uv(uint64(len(edges)))
	h.str(req.Algorithm)
	h.zig(int64(req.Graph.N))
	h.cliques(req.Graph.Cliques)
	h.requestTail(req)
	if _, err := w.Write(h.frame()); err != nil {
		return err
	}
	for off := 0; off < len(edges); off += chunkEdges {
		end := off + chunkEdges
		if end > len(edges) {
			end = len(edges)
		}
		c := newBinEnc(kindEdgeChunk, 16+10*(end-off))
		c.edges(req.Graph.N, edges[off:end])
		if _, err := w.Write(c.frame()); err != nil {
			return err
		}
	}
	e := newBinEnc(kindStreamEnd, 16)
	e.uv(uint64(len(edges)))
	_, err := w.Write(e.frame())
	return err
}

// RequestStreamLen returns the exact byte length WriteRequestStream will
// produce for req — what a client sets as Content-Length. It runs the
// encoder against a counting sink, so it is always in agreement with the
// writer (at the price of one extra encoding pass).
func RequestStreamLen(req *Request, chunkEdges int) int64 {
	var cw countingWriter
	// The counting sink never fails, and encoding itself cannot.
	_ = WriteRequestStream(&cw, req, chunkEdges)
	return cw.n
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// RequestReader reads a binary-encoded Request from a stream of frames:
// either one self-contained Request frame, or the chunked form above. The
// service's submit handler drives it — Begin, then (when Chunked) ReadChunk
// until done, admitting each chunk's bytes before reading the next.
type RequestReader struct {
	r        io.Reader
	began    bool
	chunked  bool
	declared int
	n        int // header vertex count, governs chunk edge decoding
	read     int // edges consumed so far across chunks
}

// NewRequestReader wraps r; nothing is read until Begin.
func NewRequestReader(r io.Reader) *RequestReader {
	return &RequestReader{r: r}
}

// Begin reads the first frame. For a single Request frame the returned
// request is complete and Chunked reports false. For a chunked stream the
// returned request skeleton has no edges yet — Declared reports how many
// the header promises — and the caller collects them via ReadChunk.
func (rr *RequestReader) Begin() (*Request, error) {
	if rr.began {
		return nil, errors.New("distcolor: RequestReader.Begin called twice")
	}
	rr.began = true
	kind, body, flags, err := readFrame(rr.r)
	if err != nil {
		return nil, err
	}
	d := &binDec{buf: body, flags: flags}
	switch kind {
	case kindRequest:
		req := d.request()
		if err := d.finish(); err != nil {
			return nil, err
		}
		return &req, nil
	case kindStreamHeader:
		declared := d.uv()
		req := &Request{Algorithm: d.str()}
		req.Graph.N = d.intv()
		req.Graph.Cliques = d.cliques()
		d.requestTail(req)
		if err := d.finish(); err != nil {
			return nil, err
		}
		if declared > uint64(frameMaxBytes) {
			return nil, fmt.Errorf("distcolor: stream declares %d edges, beyond any acceptable frame", declared)
		}
		rr.chunked = true
		rr.declared = int(declared)
		rr.n = req.Graph.N
		return req, nil
	default:
		return nil, fmt.Errorf("distcolor: stream opens with frame kind %d, want a request or stream header", kind)
	}
}

// Chunked reports whether Begin found a chunked stream.
func (rr *RequestReader) Chunked() bool { return rr.chunked }

// Declared is the edge count the stream header promised.
func (rr *RequestReader) Declared() int { return rr.declared }

// ReadChunk returns the next chunk of edges, in stream order. done is true
// once the end frame has been consumed and verified (the chunk is nil
// then). A stream whose chunks exceed the declared edge count, or whose
// end tally disagrees with the edges delivered, is an error.
func (rr *RequestReader) ReadChunk() ([][2]int, bool, error) {
	if !rr.chunked {
		return nil, false, errors.New("distcolor: ReadChunk on a non-chunked stream")
	}
	kind, body, flags, err := readFrame(rr.r)
	if err != nil {
		return nil, false, err
	}
	d := &binDec{buf: body, flags: flags}
	switch kind {
	case kindEdgeChunk:
		edges := d.edges(rr.n)
		if err := d.finish(); err != nil {
			return nil, false, err
		}
		rr.read += len(edges)
		if rr.read > rr.declared {
			return nil, false, fmt.Errorf("distcolor: stream chunks carry %d edges, header declared %d", rr.read, rr.declared)
		}
		return edges, false, nil
	case kindStreamEnd:
		total := d.uv()
		if err := d.finish(); err != nil {
			return nil, false, err
		}
		if total != uint64(rr.read) || rr.read != rr.declared {
			return nil, false, fmt.Errorf("distcolor: stream end tally %d, read %d, declared %d", total, rr.read, rr.declared)
		}
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("distcolor: unexpected frame kind %d mid-stream", kind)
	}
}

// readFrame reads one frame off r, validating the prefix, CRC, and payload
// header, and returns its kind, body, and feature flags. io.EOF surfaces
// untouched only at a clean frame boundary.
func readFrame(r io.Reader) (byte, []byte, uint16, error) {
	var prefix [framePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("distcolor: reading frame prefix: %w", err)
	}
	n := binary.LittleEndian.Uint32(prefix[0:4])
	if n < frameMinPayload || n > frameMaxBytes {
		return 0, nil, 0, fmt.Errorf("distcolor: frame payload length %d out of range", n)
	}
	// Grow the payload buffer only as bytes actually arrive: the declared
	// length is attacker-controlled (up to frameMaxBytes), and allocating it
	// up front would let a short, corrupt prefix demand a gigabyte.
	var body bytes.Buffer
	if n < 1<<20 {
		body.Grow(int(n))
	}
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		return 0, nil, 0, fmt.Errorf("distcolor: reading %d-byte frame payload: %w", n, err)
	}
	payload := body.Bytes()
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(prefix[4:8]); got != want {
		return 0, nil, 0, errors.New("distcolor: frame CRC mismatch (corrupt or torn record)")
	}
	kind := payload[2]
	_, flags, err := checkPayloadHeader(payload, kind)
	if err != nil {
		return 0, nil, 0, err
	}
	return kind, payload[frameHeaderLen:], flags, nil
}
