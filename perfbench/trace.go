package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path"
	"runtime"
	"strings"
	"time"

	"repro/internal/sim"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the index of the enclosing span in the recorder (-1 for an op's root).
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes is the heap allocated while the span was open; Rounds is a
	// simulator execution's executed round count.
	AllocBytes uint64 `json:"alloc_bytes"`
	Rounds     int    `json:"rounds,omitempty"`

	heap0 heapSample
}

func (s *span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// recorder keeps every span of a run in memory; dump writes them out when
// the benchmark ends. It serves one goroutine: spans nest by call order.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name, heap0: readHeap()})
	r.spans[id].StartNS = int64(time.Since(r.t0))
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	end := int64(time.Since(r.t0))
	s := &r.spans[id]
	s.EndNS = end
	s.AllocBytes = readHeap().sub(s.heap0).allocBytes
	r.open = r.open[:len(r.open)-1]
}

// finishOp closes any spans an op left open by returning early, and moves
// the recorder on to the next op.
func (r *recorder) finishOp() {
	for len(r.open) > 0 {
		r.end(r.open[len(r.open)-1])
	}
	r.op++
}

// add records an already-timed span (a server-side stage) under parent and
// returns its index.
func (r *recorder) add(name string, parent int, start, end int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end})
	return id
}

// opSpans returns the spans of op, in recording order.
func (r *recorder) opSpans(op int) []span {
	var out []span
	for _, s := range r.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
// Children of one goroutine never overlap, but the union is taken anyway so
// the rule holds for any span tree.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	var covered int64
	last := p.StartNS
	for _, c := range spans {
		if c.Parent != p.ID || c.ID == p.ID {
			continue
		}
		lo, hi := max(c.StartNS, last), min(c.EndNS, p.EndNS)
		if hi > lo {
			covered += hi - lo
			last = hi
		}
	}
	return time.Duration(p.EndNS - p.StartNS - covered)
}

// dump writes every span as one JSON line.
func (r *recorder) dump(file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedExec is a sim.Exec that records every simulator execution as a span
// named after the layer that started it. Passing it as both an algorithm's
// Exec and its VC.Exec times every execution of a composed algorithm.
type timedExec struct {
	base sim.Exec
	rec  *recorder
}

func (e timedExec) Run(ctx context.Context, t *sim.Topology, f sim.Factory, maxRounds int) (sim.Stats, error) {
	id := e.rec.begin(callerLayer())
	st, err := e.base.Run(ctx, t, f, maxRounds)
	e.rec.end(id)
	e.rec.spans[id].Rounds = st.Rounds
	return st, err
}

// callerLayer names the layer of the nearest caller on the stack outside
// the simulator and this benchmark. The first frame is timedExec.Run, whose
// package is the benchmark's own: "main" in the binary, its import path
// under go test.
func callerLayer() string {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	self := ""
	for {
		f, more := frames.Next()
		pkg, _ := splitFunc(f.Function)
		if self == "" {
			self = pkg
		}
		if pkg != self && pkg != "repro/internal/sim" {
			return layerOf(f.Function)
		}
		if !more {
			return "sim"
		}
	}
}

// splitFunc splits a qualified function name such as
// "repro/internal/arbor.Merge.func1" into its package path and the rest.
func splitFunc(fn string) (pkg, rest string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// layerOf maps the function that started a simulator execution to its
// layer: the package name, with arbor split into its two distributed
// building blocks (the H-partition peeling and the Lemma 5.1 merge).
func layerOf(fn string) string {
	pkg, rest := splitFunc(fn)
	name := path.Base(pkg)
	if name == "arbor" {
		switch {
		case rest == "Merge" || strings.HasPrefix(rest, "Merge."):
			return "arbor.merge"
		case rest == "HPartition" || strings.HasPrefix(rest, "HPartition."):
			return "arbor.hpartition"
		}
	}
	return name
}
