// Command perfbench is the repository's benchmark: four workloads over the
// paper's two edge-coloring pipelines and colord's served path, measured end
// to end with tracing off, or split across the repository's layers with
// tracing on. See README.md in this directory for why each workload exists
// and how to read the numbers.
//
//	bash perfbench/run.sh --workload edgepipe-20k --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A summary and any failed checks go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// pinSeed is the seed whose inputs are pinned by fingerprint: every run
// regenerates them first, so a change to internal/gen fails the run instead
// of silently changing a workload.
const pinSeed = 2017

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
}

type workload interface {
	run(ctx context.Context, cfg runConfig) (*report, error)
}

var workloads = map[string]workload{
	"edgepipe-20k":  edgepipe,
	"sparse-pa-50k": sparsePA,
	"colord-fresh":  &served{hits: false},
	"colord-hits":   &served{hits: true},
}

// detMetrics are the paper's measures of an op's output: exact for one
// input, so they repeat across the ops of a run.
type detMetrics struct {
	rounds, messages float64
	palette, used    float64 // declared palette and colors used, over Δ
}

// report is what a run measured. lat holds untraced ops' latencies in ms,
// traced the traced ops'; edges counts the untraced ops' input edges, and
// heap covers those of them whose edges heapEdges counts.
type report struct {
	setupS            float64
	input             fingerprint
	attempted, failed int
	problems          []string
	lat, traced       []float64
	edges, heapEdges  int64
	heap              heapSample
	det               detMetrics
	layers            layerSamples
	shed              int64 // requests colord shed during the timed loop
	rec               *recorder
}

func newReport() *report {
	return &report{layers: layerSamples{}}
}

// fail counts a failed op and keeps the first few reasons for standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// loop paces a run's timed loop. It runs until the deadline and then on
// until the run holds enough ops: minUntraced untraced ops, or in a traced
// run minBeyond traced ops. It gives up at a hard stop, so a run whose ops
// keep failing still ends.
type loop struct {
	deadline, hardStop time.Time
	trace              bool
}

func newLoop(cfg runConfig) loop {
	now := time.Now()
	return loop{deadline: now.Add(cfg.seconds), hardStop: now.Add(2*cfg.seconds + time.Minute), trace: cfg.trace}
}

func (l loop) more(r *report, minUntraced int) bool {
	now := time.Now()
	switch {
	case now.Before(l.deadline):
		return true
	case now.After(l.hardStop):
		return false
	case l.trace:
		return len(r.traced) < minBeyond
	}
	return len(r.lat) < minUntraced
}

// layerSamples holds one value per traced op for each per-layer metric.
type layerSamples map[string][]float64

func (l layerSamples) addOp(v map[string]float64) {
	for k, x := range v {
		l[k] = append(l[k], x)
	}
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, in BENCHMARK.json
// order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"edges_per_s", "edges/s"},
	{"alloc_bytes_per_edge", "B"},
	{"allocs_per_edge", "count"},
	{"ok_frac", "ratio"},
	{"rounds_per_op", "rounds"},
	{"messages_per_op", "count"},
	{"palette_per_delta", "ratio"},
	{"colors_used_per_delta", "ratio"},
}

// perLayer lists the per-layer metrics with their units. A layer a
// workload does not run reports 0. Counts that vary from op to op (see
// meanOverOps) are means over the traced ops, the rest medians.
var perLayer = []struct{ name, unit string }{
	{"graph.ingest_ms", "ms"},
	{"graph.self_ms", "ms"},
	{"graph.alloc_mb", "MB"},
	{"graph.canonical_ms", "ms"},
	{"linial.busy_ms", "ms"},
	{"linial.runs", "count"},
	{"reduce.busy_ms", "ms"},
	{"reduce.rounds_executed", "rounds"},
	{"arbor.merge_ms", "ms"},
	{"arbor.merge_stages", "count"},
	{"arbor.hpartition_ms", "ms"},
	{"arbor.parts", "count"},
	{"sim.busy_ms", "ms"},
	{"sim.runs", "count"},
	{"sim.rounds_executed", "rounds"},
	{"sim.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_ms", "ms"},
	{"verify.ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.admit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.execute_ms", "ms"},
	{"service.verify_ms", "ms"},
	{"service.serve_ms", "ms"},
	{"service.trace_events_per_op", "count"},
	{"service.http_in_bytes", "bytes"},
	{"service.http_out_bytes", "bytes"},
	{"service.cache_hit_frac", "ratio"},
	{"service.shed", "count"},
	{"store.appends_per_op", "count"},
	{"store.fsyncs_per_op", "count"},
	{"codec.encode_ms", "ms"},
	{"codec.decode_ms", "ms"},
	{"codec.request_bytes", "bytes"},
	{"codec.result_bytes", "bytes"},
	{"trace.overhead_pct", "%"},
	{"other_ms", "ms"},
}

// meanOverOps reports whether a per-layer metric is summarized by its mean:
// per-op counts and fractions, and GC work, which lands on few ops.
func meanOverOps(name string) bool {
	return strings.HasSuffix(name, "_per_op") || strings.HasSuffix(name, "_frac") || strings.HasPrefix(name, "runtime.")
}

// maxOtherShare bounds the traced op time no layer claims.
const maxOtherShare = 0.05

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: edgepipe-20k, sparse-pa-50k, colord-fresh or colord-hits")
	seed := flag.Int64("seed", pinSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "how long the timed loop runs (it also runs until enough ops for an honest median)")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced ops and report per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch files (colord data dirs) and span dumps")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: *dir}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	var metrics map[string]metric
	if cfg.trace {
		metrics = rep.perLayerMetrics()
		spans := filepath.Join(cfg.dir, "spans", fmt.Sprintf("%s-seed%d.ndjson", *name, cfg.seed))
		err = os.MkdirAll(filepath.Dir(spans), 0o755)
		if err == nil {
			err = rep.rec.dump(spans)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans: %s (%d)\n", spans, len(rep.rec.spans))
	} else {
		metrics = rep.endToEndMetrics()
	}
	rep.summarize(os.Stderr, *name, cfg, metrics)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
// edges_per_s is the mean input edges per op over the median op time: a mean
// of op times would move with the few ops a passing host stall hits.
func (r *report) endToEndMetrics() map[string]metric {
	p50, honest := percentile(r.lat, 50)
	if !honest {
		r.problems = append(r.problems, fmt.Sprintf("median over %d ops has fewer than %d samples above it", len(r.lat), minBeyond))
	}
	v := map[string]float64{
		"setup_s":               r.setupS,
		"latency_p50_ms":        p50,
		"edges_per_s":           float64(r.edges) / float64(len(r.lat)) / (p50 / 1e3),
		"alloc_bytes_per_edge":  float64(r.heap.allocBytes) / float64(r.heapEdges),
		"allocs_per_edge":       float64(r.heap.allocObjs) / float64(r.heapEdges),
		"ok_frac":               float64(r.attempted-r.failed) / float64(r.attempted),
		"rounds_per_op":         r.det.rounds,
		"messages_per_op":       r.det.messages,
		"palette_per_delta":     r.det.palette,
		"colors_used_per_delta": r.det.used,
	}
	return r.named(endToEnd, v)
}

// perLayerMetrics summarizes the traced ops; the untraced ops of the same
// run give the tracing overhead.
func (r *report) perLayerMetrics() map[string]metric {
	v := make(map[string]float64, len(perLayer))
	for k, xs := range r.layers {
		if meanOverOps(k) {
			v[k] = mean(xs)
		} else {
			v[k] = median(xs)
		}
	}
	v["service.shed"] = float64(r.shed)
	traced, untraced := median(r.traced), median(r.lat)
	v["trace.overhead_pct"] = (traced - untraced) / untraced * 100
	if other := v["other_ms"]; other > maxOtherShare*traced {
		r.problems = append(r.problems, fmt.Sprintf("other_ms %.3f is over %.0f%% of the traced op (%.3f ms)", other, maxOtherShare*100, traced))
	}
	return r.named(perLayer, v)
}

// named attaches units, filling layers a workload does not run with 0. A
// value that is not a finite number marks the run incorrect.
func (r *report) named(list []struct{ name, unit string }, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.problems = append(r.problems, fmt.Sprintf("%s is %v", m.name, x))
			x = 0
		}
		out[m.name] = metric{Value: x, Unit: m.unit}
	}
	return out
}

// summarize writes the run's sample counts, the latency percentiles that
// have at least minBeyond samples above them, and any failed checks.
func (r *report) summarize(f *os.File, name string, cfg runConfig, metrics map[string]metric) {
	fmt.Fprintf(f, "%s seed=%d input %v\n", name, cfg.seed, r.input)
	fmt.Fprintf(f, "ops attempted=%d failed=%d untraced=%d traced=%d; setup %.4f s (median)\n",
		r.attempted, r.failed, len(r.lat), len(r.traced), r.setupS)
	for _, p := range []float64{50, 90, 99} {
		if v, ok := percentile(r.lat, p); ok {
			fmt.Fprintf(f, "latency p%.0f = %.3f ms (n=%d)\n", p, v, len(r.lat))
		}
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "  %-28s %16.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
}
