package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"

	distcolor "repro"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p90 over 20 samples rests on two of them.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples, and whether at least minBeyond samples lie above it. samples
// need not be sorted; it is not modified.
func percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the 50th percentile without the honesty check, for per-layer
// summaries of a handful of traced ops.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// mean of samples (NaN when empty).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// fingerprint pins a workload input: its size, maximum degree, and a hash
// of the edge list in edge order.
type fingerprint struct {
	N, M, Delta int
	Hash        string
}

func (f fingerprint) String() string {
	return fmt.Sprintf("n=%d m=%d Δ=%d edges=%s", f.N, f.M, f.Delta, f.Hash)
}

func fingerprintOf(g *distcolor.Graph) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return fingerprint{N: g.N(), M: g.M(), Delta: g.MaxDegree(), Hash: fmt.Sprintf("%016x", h.Sum64())}
}

// distinctColors counts the colors a coloring actually uses.
func distinctColors(colors []int64) int {
	seen := make(map[int64]struct{}, 64)
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// heap samples the runtime's cumulative allocation and GC counters. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket every
// span of a traced op.
type heapSample struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPUSeconds                    float64
}

var heapMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readHeap() heapSample {
	s := make([]metrics.Sample, len(heapMetricNames))
	for i, name := range heapMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return heapSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjs:    s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPUSeconds: s[3].Value.Float64(),
	}
}

// sub returns the counters accumulated between o and h.
func (h heapSample) sub(o heapSample) heapSample {
	return heapSample{
		allocBytes:   h.allocBytes - o.allocBytes,
		allocObjs:    h.allocObjs - o.allocObjs,
		gcCycles:     h.gcCycles - o.gcCycles,
		gcCPUSeconds: h.gcCPUSeconds - o.gcCPUSeconds,
	}
}

// add sums the counters of two samples.
func (h heapSample) add(o heapSample) heapSample {
	return heapSample{
		allocBytes:   h.allocBytes + o.allocBytes,
		allocObjs:    h.allocObjs + o.allocObjs,
		gcCycles:     h.gcCycles + o.gcCycles,
		gcCPUSeconds: h.gcCPUSeconds + o.gcCPUSeconds,
	}
}
