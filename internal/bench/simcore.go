package bench

// The simulator-core perf suite behind BENCH_simcore.json: fixed workloads
// over the flat CSR + arena data plane (internal/sim, DESIGN.md §7) and
// end-to-end runs of the paper's algorithms over the packed word plane and
// the de-allocated hot paths (DESIGN.md §8), measured with the stdlib
// benchmark machinery and emitted as machine-readable results.
// `colorbench -json` writes the report; `colorbench -json -check FILE`
// re-runs the suite and fails on regressions against a committed baseline —
// `make bench-baseline` / `make bench-check` wrap both, and CI runs the
// check on every push.
//
// Two kinds of numbers live in a report. Deterministic workload metrics
// (rounds, messages, colors) must match a baseline exactly on every
// machine: a drift means the execution changed, not the hardware.
// Machine-dependent metrics (ns/op, allocs, bytes) are compared with a
// tolerance band, and allocs-per-round is pinned at exactly zero for the
// sequential engines' steady state — the tentpole contract of the arena
// data plane.
// An allocs_per_round of -1 is the explicit "unmeasured" sentinel (the
// differencing methodology needs a single program run at two lengths, so
// composed algorithm pipelines and the parallel engine report -1); the
// comparison treats the sentinel as its own state rather than as a value.
//
// Parallel-engine workloads are environment-gated: they are only measured
// when runtime.NumCPU() > 1, because on a single-CPU runner the "parallel"
// engine degenerates to the sequential loop plus scheduling overhead and a
// recorded parallel-vs-sequential delta would be meaningless.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/arbor"
	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/verify"
)

// SimCoreSchema versions the report layout.
const SimCoreSchema = 1

// SimCoreResult is one measured workload of the simulator-core suite.
type SimCoreResult struct {
	Name string `json:"name"`
	// NsPerOp and the alloc metrics are the fastest observed full
	// execution of the workload (setup + every round); see measureOp.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// AllocsPerRound is the marginal heap allocation cost of one extra
	// round in the steady state, measured by differencing runs of
	// different lengths (setup cost cancels exactly). -1 is the explicit
	// "unmeasured" sentinel: the methodology needs one program run at two
	// lengths, which composed algorithm pipelines and the parallel engine
	// do not offer. CompareSimCore treats the sentinel as a distinct
	// state, never as a comparable value.
	AllocsPerRound float64 `json:"allocs_per_round"`
	// Deterministic workload metrics; identical on every machine.
	Colors   int64 `json:"colors,omitempty"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	// MaxWordBits is the largest single message of the run in bits — the
	// bandwidth of the hottest edge, as accounted by each program's
	// WordSizer or each message's Sizer (64 for unsized words/messages).
	// Deterministic: a drift means some program changed what it puts on
	// the wire.
	MaxWordBits int64 `json:"max_word_bits"`
	// CongestViolations counts executed rounds whose hottest edge exceeded
	// the CONGEST cap the workload's engine was instrumented with
	// (sim.CongestCapBits); always 0 for workloads run without a cap.
	// Deterministic: a program that silently fattens its messages past
	// the cap fails the baseline comparison here.
	CongestViolations int64 `json:"congest_violations"`
}

// SimCoreReport is the full suite output, annotated with the environment
// that produced it.
type SimCoreReport struct {
	Schema    int             `json:"schema"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Results   []SimCoreResult `json:"results"`
}

const (
	simCoreN      = 10_000 // the 10k-vertex plane workload
	simCoreDeg    = 16
	simCoreRounds = 32
	simCoreSeed   = 2017

	// The end-to-end edge-coloring pipeline workload: the §4 star
	// partition on a 100k-vertex near-regular graph, seeded by Linial on
	// its ~400k-vertex line graph — the "production scale" checkpoint of
	// the ROADMAP.
	simCorePipeN   = 100_000
	simCorePipeDeg = 8

	// The CD vertex-coloring workload: the line graph of a 3-uniform
	// hypergraph (diversity ≤ 3), the paper's canonical bounded-diversity
	// family.
	simCoreCDVerts = 2_000
	simCoreCDEdges = 6_000

	// The Corollary 5.5 workload: a preferential-attachment graph of
	// arboricity at most 2, whose H-partition stages run the Lemma 5.1
	// merge, the one production port program.
	simCoreSparseN = 20_000
)

// portExchange is the port-plane workload, a sim.PortProgram: every
// vertex broadcasts a word-sized payload, boxed through the general
// Message slot, on every port each round and folds its inbox into acc[v].
// acc is sized for the plane workload's simCoreN vertices.
type portExchange struct {
	rounds int
	// wave staggers halting: vertex v halts after round v mod rounds (the
	// plane topology's identifiers are its vertex indices) instead of
	// after the last round.
	wave bool
	acc  []int64
}

// wavefrontFactory is the canonical port-plane workload: vertices halt in
// staggered waves (vertex v runs 1 + v mod span rounds), the termination
// pattern of the repository's algorithms.
func wavefrontFactory(span int) sim.Factory {
	return &portExchange{rounds: span, wave: true, acc: make([]int64, simCoreN)}
}

// exchangeFactory keeps every vertex live for the whole execution — the
// dense-traffic bound of the port plane.
func exchangeFactory(rounds int) sim.Factory {
	return &portExchange{rounds: rounds, acc: make([]int64, simCoreN)}
}

// Scratch implements sim.Factory.
func (*portExchange) Scratch(int) int { return 0 }

// Step implements sim.PortProgram.
func (p *portExchange) Step(v, round int, in []sim.Mail, out *sim.Outbox, _ []sim.Word) bool {
	for _, m := range in {
		p.acc[v] += m.Msg.(int64)
	}
	out.SendAll(int64(round & 0x7f))
	last := p.rounds - 1
	if p.wave {
		last = v % p.rounds
	}
	return round >= last
}

// exchangeWords is exchangeFactory's program on the packed word plane: the
// same traffic pattern with zero boxing, measuring the fast path the
// algorithm programs ride. acc[v] folds v's inbox, as portExchange's
// does; it is sized for the plane workload's simCoreN vertices.
type exchangeWords struct {
	rounds int
	acc    []int64
}

func exchangeWordsFactory(rounds int) sim.Factory {
	return &exchangeWords{rounds: rounds, acc: make([]int64, simCoreN)}
}

// Scratch implements sim.Factory.
func (*exchangeWords) Scratch(int) int { return 0 }

// StepWord implements sim.WordProgram.
func (p *exchangeWords) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	for _, w := range in {
		if w != sim.NoWord {
			p.acc[v] += w
		}
	}
	return sim.Word(round & 0x7f), round >= p.rounds-1
}

// sizedExchange is the exchange traffic pattern with honest wire
// accounting: the payload fits 7 bits (round&0x7f) and the program says
// so via WordSizer, so the CONGEST audit sees true message sizes instead
// of the 64-bit default. Its workload must stay violation-free under the
// sim.CongestCapBits cap — and allocation-free with the cap counted.
type sizedExchange struct{ exchangeWords }

func exchangeSizedFactory(rounds int) sim.Factory {
	return &sizedExchange{exchangeWords{rounds: rounds, acc: make([]int64, simCoreN)}}
}

// WordBits implements sim.WordSizer.
func (*sizedExchange) WordBits(sim.Word) int64 { return 7 }

// MeasureOp times one workload execution repeatedly and returns the
// fastest observed op with its leanest heap-allocation profile. Taking
// the minimum rather than the mean makes the numbers reproducible on
// noisy shared runners (interference only ever slows an op down, never
// speeds it up), which is what lets bench-check hold a 15% band in CI.
// One last op runs with the collector paused and counts towards the
// allocation profile only: a timed op that a GC cycle lands in also
// counts the collector's own objects (a mutator assist that parks takes a
// sudog, and every cycle empties the sudog cache), so a workload that
// allocates past the heap goal can pay them on every timed op.
// Exported for the suite extensions that cannot live in this package
// (internal/svcbench measures the colord admission path; importing the
// service layer here would cycle through the root package's tests).
func MeasureOp(fn func() error) (nsPerOp, allocsPerOp, bytesPerOp int64, err error) {
	if err := fn(); err != nil { // warm-up: caches, lazy inits, first GC growth
		return 0, 0, 0, err
	}
	const (
		minOps = 5
		maxOps = 15
		budget = 2 * time.Second
	)
	nsPerOp = math.MaxInt64
	allocsPerOp = math.MaxInt64
	bytesPerOp = math.MaxInt64
	var m0, m1 runtime.MemStats
	op := func() (int64, error) {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&m1)
		allocsPerOp = min(allocsPerOp, int64(m1.Mallocs-m0.Mallocs))
		bytesPerOp = min(bytesPerOp, int64(m1.TotalAlloc-m0.TotalAlloc))
		return d, nil
	}
	start := time.Now()
	for i := 0; i < maxOps && (i < minOps || time.Since(start) < budget); i++ {
		d, opErr := op()
		if opErr != nil {
			return 0, 0, 0, opErr
		}
		nsPerOp = min(nsPerOp, d)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := op(); err != nil {
		return 0, 0, 0, err
	}
	return nsPerOp, allocsPerOp, bytesPerOp, nil
}

// measurePlane benchmarks one engine on one plane program and fills the
// deterministic metrics from a verification run.
func measurePlane(ctx context.Context, name string, eng sim.Exec, topo *sim.Topology, prog func(rounds int) sim.Factory, perRound bool) (SimCoreResult, error) {
	stats, err := eng.Run(ctx, topo, prog(simCoreRounds), simCoreRounds+2)
	if err != nil {
		return SimCoreResult{}, fmt.Errorf("bench: simcore %s: %w", name, err)
	}
	ns, allocs, bytes, err := MeasureOp(func() error {
		_, runErr := eng.Run(ctx, topo, prog(simCoreRounds), simCoreRounds+2)
		return runErr
	})
	if err != nil {
		return SimCoreResult{}, fmt.Errorf("bench: simcore %s: %w", name, err)
	}
	out := SimCoreResult{
		Name:              name,
		NsPerOp:           ns,
		AllocsPerOp:       allocs,
		BytesPerOp:        bytes,
		AllocsPerRound:    -1,
		Rounds:            stats.Rounds,
		Messages:          stats.Messages,
		MaxWordBits:       stats.MaxMessageBits,
		CongestViolations: stats.CongestViolations,
	}
	if perRound {
		out.AllocsPerRound = allocsPerRound(ctx, eng, topo, prog)
	}
	return out, nil
}

// allocsPerRound measures the marginal allocation cost of one steady-state
// round of the workload's own program by differencing executions of
// different lengths: instance setup allocates identically in both, so the
// remainder is purely the round loop's. (testing.AllocsPerRun pins
// GOMAXPROCS to 1, so this is only meaningful for the sequential engines.)
func allocsPerRound(ctx context.Context, eng sim.Exec, topo *sim.Topology, prog func(rounds int) sim.Factory) float64 {
	const shortRounds, longRounds = 8, 72
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			// Errors are impossible here: the same workload was just
			// validated by the measurement run.
			_, _ = eng.Run(ctx, topo, prog(rounds), rounds+2)
		})
	}
	per := (measure(longRounds) - measure(shortRounds)) / float64(longRounds-shortRounds)
	// The marginal cost is a whole number of allocations; fractional
	// residue (either sign) is runtime noise leaking into one of the two
	// measurements, not a per-round allocation.
	if math.Abs(per) < 0.5 {
		return 0
	}
	return per
}

// coloring is what one run of an algorithm row returns: a coloring of
// g's vertices, or of its edges, with its palette and cost.
type coloring struct {
	g       *graph.Graph
	edges   bool
	colors  []int64
	palette int64
	stats   sim.Stats
}

// check proves the coloring proper.
func (c coloring) check() error {
	if c.edges {
		return verify.EdgeColoring(c.g, c.colors, c.palette)
	}
	return verify.VertexColoring(c.g, c.colors, c.palette)
}

// algoRow is one end-to-end algorithm workload. prepare builds its input
// once, outside any measurement, and returns the run that the suite and
// the row's BenchmarkAlgo twin (algos_test.go) time.
type algoRow struct {
	name    string
	prepare func(ctx context.Context) (run func() (coloring, error), err error)
}

// algoRows are the suite's end-to-end algorithm workloads, in report
// order.
var algoRows = []algoRow{
	// The O(log* n) Linial substrate on the 10k workload.
	{"algo/linial/sequential-10k", func(ctx context.Context) (func() (coloring, error), error) {
		g, err := gen.NearRegular(simCoreN, 8, simCoreSeed)
		if err != nil {
			return nil, err
		}
		return func() (coloring, error) {
			res, err := linial.Reduce(ctx, sim.Sequential, sim.NewTopology(g), int64(g.N()))
			if err != nil {
				return coloring{}, err
			}
			return coloring{g, false, res.Colors, res.Palette, res.Stats}, nil
		}, nil
	}},
	// The paper's §4 star-partition pipeline on the standard Table 1
	// workload — a deep composition, so it covers instance setup and
	// subtopology churn rather than a single long execution.
	{"algo/star-x1/sequential-d32", func(ctx context.Context) (func() (coloring, error), error) {
		g, err := Workload(32, simCoreSeed)
		if err != nil {
			return nil, err
		}
		return starRun(ctx, g)
	}},
	// CD vertex-coloring on a bounded-diversity instance (the line graph
	// of a 3-uniform hypergraph, D ≤ 3).
	{"algo/cd-x1/sequential-h3", func(ctx context.Context) (func() (coloring, error), error) {
		h, err := gen.UniformHypergraph(simCoreCDVerts, 3, simCoreCDEdges, simCoreSeed)
		if err != nil {
			return nil, err
		}
		g, cov, err := cliques.HypergraphLineCover(h)
		if err != nil {
			return nil, err
		}
		t := cd.ChooseT(cov.MaxCliqueSize(), 1)
		return func() (coloring, error) {
			res, err := cd.Color(ctx, g, cov, t, 1, cd.Options{})
			if err != nil {
				return coloring{}, err
			}
			return coloring{g, false, res.Colors, res.Palette, res.Stats}, nil
		}, nil
	}},
	// Corollary 5.5 on a sparse graph: the H-partition, the black box on
	// the part-internal edges, and a Lemma 5.1 merge per crossing stage.
	{"algo/sparse/sequential-pa20k", func(ctx context.Context) (func() (coloring, error), error) {
		g, err := gen.PreferentialAttachment(simCoreSparseN, 2, simCoreSeed)
		if err != nil {
			return nil, err
		}
		a := graph.ArboricityUpperBound(g)
		return func() (coloring, error) {
			res, _, err := arbor.ColorAdaptive(ctx, g, a, arbor.Options{})
			if err != nil {
				return coloring{}, err
			}
			return coloring{g, true, res.Colors, res.Palette, res.Stats}, nil
		}, nil
	}},
	// The full edge-coloring pipeline at production scale: 100k vertices
	// through the §4 star partition (Linial seed on the ~400k-vertex line
	// graph, connector coloring, recursive classes, final trim).
	{"algo/edgepipe-x1/sequential-100k", func(ctx context.Context) (func() (coloring, error), error) {
		g, err := gen.NearRegular(simCorePipeN, simCorePipeDeg, simCoreSeed)
		if err != nil {
			return nil, err
		}
		return starRun(ctx, g)
	}},
}

// starRun is the run of the §4 star partition at x = 1 on g; the star
// parameter t is chosen here, outside the run.
func starRun(ctx context.Context, g *graph.Graph) (func() (coloring, error), error) {
	t, err := star.ChooseT(g.MaxDegree(), 1)
	if err != nil {
		return nil, err
	}
	return func() (coloring, error) {
		res, err := star.EdgeColor(ctx, g, t, 1, star.Options{})
		if err != nil {
			return coloring{}, err
		}
		return coloring{g, true, res.Colors, res.Palette, res.Stats}, nil
	}, nil
}

// measureAlgo runs one end-to-end algorithm row: a first run, checked,
// supplies the deterministic metrics and proves the coloring proper,
// then MeasureOp times bare runs (the check is hoisted out of the
// measured op so the gated numbers track the coloring pipeline, not
// internal/verify, as the BenchmarkAlgo twins do). Algorithm pipelines
// compose many executions of varying length, so their allocs_per_round
// carries the -1 "unmeasured" sentinel.
func measureAlgo(ctx context.Context, row algoRow) (SimCoreResult, error) {
	run, err := row.prepare(ctx)
	if err != nil {
		return SimCoreResult{}, fmt.Errorf("bench: simcore %s: %w", row.name, err)
	}
	c, err := run()
	if err != nil {
		return SimCoreResult{}, fmt.Errorf("bench: simcore %s: %w", row.name, err)
	}
	if err := c.check(); err != nil {
		return SimCoreResult{}, fmt.Errorf("bench: simcore %s: improper: %w", row.name, err)
	}
	ns, allocs, bytes, err := MeasureOp(func() error {
		_, runErr := run()
		return runErr
	})
	if err != nil {
		return SimCoreResult{}, fmt.Errorf("bench: simcore %s: %w", row.name, err)
	}
	return SimCoreResult{
		Name:              row.name,
		NsPerOp:           ns,
		AllocsPerOp:       allocs,
		BytesPerOp:        bytes,
		AllocsPerRound:    -1,
		Colors:            c.palette,
		Rounds:            c.stats.Rounds,
		Messages:          c.stats.Messages,
		MaxWordBits:       c.stats.MaxMessageBits,
		CongestViolations: c.stats.CongestViolations,
	}, nil
}

// RunSimCore executes the full simulator-core suite.
func RunSimCore(ctx context.Context) (*SimCoreReport, error) {
	plane, err := gen.NearRegular(simCoreN, simCoreDeg, simCoreSeed)
	if err != nil {
		return nil, err
	}
	planeTopo := sim.NewTopology(plane)

	rep := &SimCoreReport{
		Schema:    SimCoreSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}

	// The CONGEST-audited word-plane workloads run on an engine
	// instrumented with the cap (DESIGN.md §9). The unsized variant is
	// accounted at the 64-bit default and deterministically violates the
	// cap every messaging round — pinning the violation count itself; the
	// sized variant declares its true 7-bit payloads and must stay
	// violation-free. Both keep allocs/round pinned at 0: the cap may not
	// cost the round loop a single allocation.
	congestCap := sim.CongestCapBits(simCoreN)
	planeRuns := []struct {
		name     string
		eng      sim.Exec
		prog     func(rounds int) sim.Factory
		perRound bool
	}{
		{"plane/wavefront/sequential-10k", sim.Sequential, wavefrontFactory, true},
		{"plane/wavefront/parallel-10k", sim.Parallel, wavefrontFactory, false},
		{"plane/exchange/sequential-10k", sim.Sequential, exchangeFactory, true},
		{"plane/exchange-words/sequential-10k", sim.Sequential, exchangeWordsFactory, true},
		{"plane/exchange-words-congest/sequential-10k",
			sim.Instrumented(sim.Sequential, nil, congestCap), exchangeWordsFactory, true},
		{"plane/exchange-words-sized/sequential-10k",
			sim.Instrumented(sim.Sequential, nil, congestCap), exchangeSizedFactory, true},
		{"plane/exchange/reverse-10k", sim.ReverseSequential, exchangeFactory, true},
	}
	for _, pr := range planeRuns {
		if ParallelGated(pr.name) && runtime.NumCPU() <= 1 {
			// A single-CPU runner cannot produce a meaningful
			// parallel-engine measurement; the comparison treats these
			// workloads as environment-gated on both sides.
			continue
		}
		r, runErr := measurePlane(ctx, pr.name, pr.eng, planeTopo, pr.prog, pr.perRound)
		if runErr != nil {
			return nil, runErr
		}
		rep.Results = append(rep.Results, r)
	}

	// End-to-end algorithm workloads, each verified before its numbers
	// are reported.
	for _, row := range algoRows {
		r, err := measureAlgo(ctx, row)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// SimCoreProblem is one violated expectation from a baseline comparison.
type SimCoreProblem struct {
	Workload string
	Detail   string
}

func (p SimCoreProblem) String() string { return p.Workload + ": " + p.Detail }

// EnvMatches reports whether two reports were produced on the same
// runner class: same Go toolchain, OS, architecture, and CPU count.
// Wall-clock numbers are only comparable within a class.
func EnvMatches(a, b *SimCoreReport) bool {
	return toolchainMatches(a, b) && a.NumCPU == b.NumCPU
}

// toolchainMatches reports whether two reports share the Go toolchain, OS
// and architecture. A workload off the parallel engine allocates the same
// count and bytes on any CPU count of such a pair, so its allocs/op and
// bytes/op bands arm.
func toolchainMatches(a, b *SimCoreReport) bool {
	return a.GoVersion == b.GoVersion && a.GOOS == b.GOOS && a.GOARCH == b.GOARCH
}

// ParallelGated reports whether a workload is only measured on multi-CPU
// runners (see RunSimCore): presence mismatches for these workloads are
// environment differences, not regressions.
func ParallelGated(name string) bool { return strings.Contains(name, "/parallel") }

// CompareSimCore diffs a fresh report against a committed baseline.
// Deterministic metrics must match exactly on every machine, and a
// workload whose baseline pins allocs-per-round at zero must stay at
// zero; the -1 sentinel means "unmeasured" and is matched as a state (a
// workload whose baseline measured allocs/round may not silently stop
// measuring it). The machine-dependent bands — ns/op, allocs/op and
// bytes/op may not regress by more than the tolerance fraction
// (improvements always pass) — are enforced only where the two reports
// are comparable: ns/op and the /parallel workloads' allocs/op and
// bytes/op within one runner class (EnvMatches), since an absolute
// wall-clock number from different hardware is noise, not a baseline;
// every other workload's allocs/op and bytes/op whenever the toolchain,
// OS and architecture match, since a run off the parallel engine
// allocates the same on any CPU count. Skipped bands are reported in
// notes, so the caller can tell the operator to regenerate the baseline
// on the current runner class.
// Missing or renamed workloads are problems, except for the
// ParallelGated ones, whose presence legitimately varies with the
// runner's CPU count and is reported as a note instead.
func CompareSimCore(baseline, current *SimCoreReport, tolerance float64) (problems []SimCoreProblem, notes []string) {
	add := func(w, format string, args ...any) {
		problems = append(problems, SimCoreProblem{Workload: w, Detail: fmt.Sprintf(format, args...)})
	}
	note := func(format string, args ...any) {
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	if baseline.Schema != current.Schema {
		add("report", "schema %d vs baseline %d", current.Schema, baseline.Schema)
	}
	wallClock := EnvMatches(baseline, current)
	seqAllocs := toolchainMatches(baseline, current)
	if !wallClock {
		skipped := "ns/op, allocs/op and bytes/op bands"
		if seqAllocs {
			skipped = "ns/op band and the /parallel workloads' allocs/op and bytes/op bands"
		}
		note("baseline runner class (%s %s/%s, %d CPUs) differs from this one (%s %s/%s, %d CPUs): %s skipped — regenerate the baseline on this class with `make bench-baseline` to arm them",
			baseline.GoVersion, baseline.GOOS, baseline.GOARCH, baseline.NumCPU,
			current.GoVersion, current.GOOS, current.GOARCH, current.NumCPU, skipped)
	}
	cur := make(map[string]SimCoreResult, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			// The gate only excuses a missing parallel workload when this
			// runner genuinely cannot measure it; on a multi-CPU runner a
			// lost parallel workload is a regression like any other.
			if ParallelGated(b.Name) && current.NumCPU <= 1 {
				note("%s: baseline workload not measured on this runner (parallel workloads need >1 CPU, this one has %d)", b.Name, current.NumCPU)
			} else {
				add(b.Name, "workload missing from current run")
			}
			continue
		}
		delete(cur, b.Name)
		if c.Rounds != b.Rounds || c.Messages != b.Messages || c.Colors != b.Colors {
			add(b.Name, "deterministic metrics drifted: rounds/messages/colors %d/%d/%d, baseline %d/%d/%d",
				c.Rounds, c.Messages, c.Colors, b.Rounds, b.Messages, b.Colors)
		}
		if c.MaxWordBits != b.MaxWordBits || c.CongestViolations != b.CongestViolations {
			add(b.Name, "bandwidth accounting drifted: max_word_bits/congest_violations %d/%d, baseline %d/%d — some program changed what it puts on the wire",
				c.MaxWordBits, c.CongestViolations, b.MaxWordBits, b.CongestViolations)
		}
		if wallClock {
			if limit := float64(b.NsPerOp) * (1 + tolerance); float64(c.NsPerOp) > limit {
				add(b.Name, "ns/op regressed beyond %.0f%%: %d vs baseline %d", tolerance*100, c.NsPerOp, b.NsPerOp)
			}
		}
		if wallClock || seqAllocs && !ParallelGated(b.Name) {
			if limit := float64(b.AllocsPerOp) * (1 + tolerance); float64(c.AllocsPerOp) > limit {
				add(b.Name, "allocs/op regressed beyond %.0f%%: %d vs baseline %d", tolerance*100, c.AllocsPerOp, b.AllocsPerOp)
			}
			if limit := float64(b.BytesPerOp) * (1 + tolerance); float64(c.BytesPerOp) > limit {
				add(b.Name, "bytes/op regressed beyond %.0f%%: %d vs baseline %d", tolerance*100, c.BytesPerOp, b.BytesPerOp)
			}
		}
		// allocs_per_round: -1 is the "unmeasured" sentinel, matched as a
		// state of its own — never compared as a value.
		switch {
		case b.AllocsPerRound < 0 && c.AllocsPerRound < 0:
			// Unmeasured on both sides: nothing to compare.
		case b.AllocsPerRound < 0:
			note("%s: allocs/round is now measured (%.2f) but unmeasured (-1) in the baseline — regenerate with `make bench-baseline` to pin it", b.Name, c.AllocsPerRound)
		case c.AllocsPerRound < 0:
			add(b.Name, "allocs/round no longer measured (-1); baseline pins %.2f", b.AllocsPerRound)
		case b.AllocsPerRound == 0 && c.AllocsPerRound != 0:
			add(b.Name, "steady-state rounds allocate: %.2f allocs/round, pinned at 0", c.AllocsPerRound)
		case b.AllocsPerRound > 0 && c.AllocsPerRound > b.AllocsPerRound*(1+tolerance):
			add(b.Name, "allocs/round regressed beyond %.0f%%: %.2f vs baseline %.2f", tolerance*100, c.AllocsPerRound, b.AllocsPerRound)
		}
	}
	for name := range cur {
		// Symmetric leniency: an unguarded parallel workload is only
		// expected when the baseline came from a runner that could not
		// measure it.
		if ParallelGated(name) && baseline.NumCPU <= 1 {
			note("%s: parallel workload measured here but absent from the baseline (recorded on a single-CPU runner) — regenerate with `make bench-baseline` on this class to guard it", name)
		} else {
			add(name, "workload not in baseline (regenerate with make bench-baseline)")
		}
	}
	return problems, notes
}
