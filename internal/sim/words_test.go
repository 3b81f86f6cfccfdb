package sim_test

// Equivalence matrix for the broadcast word plane (sim/words.go): word
// programs must be observationally identical to their port-program
// counterparts — same per-vertex results, same Stats (messages, bits,
// max bits), on every graph and engine of the plane grid, and also when
// stepped one vertex at a time through the pre-CSR reference plane
// (runReference, plane_test.go). The active-set tests hold a program that
// names its acting vertices to the same reference, which steps every
// vertex. The allocation tests pin the word plane's steady state at zero
// heap allocations per round and its per-run storage at a per-vertex, not
// per-arc, size.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// refExec adapts the reference engine kept in plane_test.go to sim.Exec,
// so whole algorithm pipelines can be replayed on the unoptimized
// per-vertex-slice plane (see the algorithm equivalence tests in the
// algorithm packages and plane_test.go).
type refExec struct{}

func (refExec) Run(ctx context.Context, t *sim.Topology, f sim.Factory, maxRounds int) (sim.Stats, error) {
	return runReference(t, f, maxRounds)
}

// --- word twins of the plane programs --------------------------------------

// wordSum is sumProgram on the word plane.
type wordSum struct {
	t       *sim.Topology
	results []int64
}

func wordSumProgram(t *sim.Topology, results []int64) sim.WordProgram {
	return &wordSum{t: t, results: results}
}

func (*wordSum) Scratch(int) int { return 0 }

func (p *wordSum) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	if round == 0 {
		return p.t.ID(v), len(in) == 0
	}
	var sum int64
	for _, w := range in {
		sum += w
	}
	p.results[v] = sum
	return sim.NoWord, true
}

// wordFlood is floodProgram on the word plane, with the same reached[v]
// slab.
type wordFlood struct {
	t       *sim.Topology
	reached []bool
	results []int64
}

func wordFloodProgram(t *sim.Topology, results []int64) sim.WordProgram {
	return &wordFlood{t: t, reached: make([]bool, t.G.N()), results: results}
}

func (*wordFlood) Scratch(int) int { return 0 }

func (p *wordFlood) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	if round == 0 {
		p.reached[v] = p.t.ID(v) == 0
	}
	if p.reached[v] {
		p.results[v] = int64(round)
		return 1, true
	}
	for _, w := range in {
		if w != sim.NoWord {
			p.reached[v] = true
			break
		}
	}
	return sim.NoWord, false
}

// sizedPayloadBits is the common bit schedule of the sized program pair.
func sizedPayloadBits(v int64) int64 { return v%13 + 14 }

// sizedPortProgram staggers halting, broadcasts a Sizer payload that
// changes every round in two rounds out of three (silent in the third),
// and folds everything received into an accumulator. The per-port Sizer
// case, which only a port program can express, is chattyProgram's.
func sizedPortProgram(t *sim.Topology, results []int64) sim.PortProgram {
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		id := t.ID(v)
		acc := results[v]
		k := 0
		for p := 0; p < t.G.Degree(v); p++ {
			if k < len(in) && int(in[k].Port) == p {
				acc = acc*31 + int64(in[k].Msg.(sizedMsg)) + int64(p)
				k++
			} else {
				acc = acc*31 + 7
			}
		}
		results[v] = acc
		if (round+int(id))%3 != 2 {
			out.SendAll(sizedMsg(id + int64(round)))
		}
		return round >= int(id%5)
	})
}

// wordSized is sizedPortProgram as a word program with a WordSizer
// reporting the identical bit schedule. It folds its inbox through the
// shard's scratch — copied in, then read back — so a scratch slab shared
// between concurrently stepping shards, or one shorter than Scratch(Δ),
// corrupts its results.
type wordSized struct {
	t       *sim.Topology
	results []int64
}

func wordSizedProgram(t *sim.Topology, results []int64) sim.WordProgram {
	return &wordSized{t: t, results: results}
}

func (*wordSized) Scratch(maxDeg int) int { return maxDeg }

func (p *wordSized) StepWord(v, round int, in, scratch []sim.Word) (sim.Word, bool) {
	id := p.t.ID(v)
	buf := scratch[:len(in)]
	copy(buf, in)
	acc := p.results[v]
	for port, w := range buf {
		if w == sim.NoWord {
			acc = acc*31 + 7
		} else {
			acc = acc*31 + w + int64(port)
		}
	}
	p.results[v] = acc
	out := sim.NoWord
	if (round+int(id))%3 != 2 {
		out = id + int64(round)
	}
	return out, round >= int(id%5)
}

func (*wordSized) WordBits(w sim.Word) int64 { return sizedPayloadBits(w) }

// wordPlaneGraphs is the word plane's test grid. gnp-sharded has at least
// two shards' worth of vertices, so the parallel engine runs it on
// several shards, each with its own inbox window and scratch, wherever
// there are CPUs for them.
func wordPlaneGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-small", planeRandomGraph(1, 60, 0.15)},
		{"gnp-sharded", planeRandomGraph(4, 1024, 0.006)},
		{"gnp-sparse", planeRandomGraph(2, 250, 0.015)},
		{"gnp-dense", planeRandomGraph(3, 50, 0.6)},
		{"star", graph.Star(40)},
		{"path", graph.Path(30)},
		{"complete", graph.Complete(24)},
		{"cycle", graph.Cycle(17)},
		{"isolated", graph.NewBuilder(12).MustBuild()},
		{"single", graph.NewBuilder(1).MustBuild()},
		{"empty", graph.NewBuilder(0).MustBuild()},
	}
}

// wordPlaneEngines are the engines every word-plane test runs on.
var wordPlaneEngines = []struct {
	name string
	eng  sim.Engine
}{
	{"sequential", sim.Sequential},
	{"reverse", sim.ReverseSequential},
	{"parallel", sim.Parallel},
}

// TestWordPlaneEquivalenceMatrix runs each word program and its
// port-program twin over the plane grid: per-vertex results and Stats
// must be identical between (a) the twin on the reference plane, (b) the
// word program on every engine (word plane), and (c) the word program
// stepped one vertex at a time through the reference plane.
func TestWordPlaneEquivalenceMatrix(t *testing.T) {
	programs := []struct {
		name string
		port func(*sim.Topology, []int64) sim.PortProgram
		word func(*sim.Topology, []int64) sim.WordProgram
	}{
		{"sum", sumProgram, wordSumProgram},
		{"flood", floodProgram, wordFloodProgram},
		{"sized", sizedPortProgram, wordSizedProgram},
	}
	const maxRounds = 64
	for _, gc := range wordPlaneGraphs() {
		for _, pc := range programs {
			t.Run(gc.name+"/"+pc.name, func(t *testing.T) {
				topo := sim.NewTopology(gc.g)
				wantRes := make([]int64, gc.g.N())
				wantStats, wantErr := runReference(topo, pc.port(topo, wantRes), maxRounds)
				check := func(label string, gotRes []int64, gotStats sim.Stats, gotErr error) {
					t.Helper()
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: error mismatch: reference %v, got %v", label, wantErr, gotErr)
					}
					if gotStats != wantStats {
						t.Fatalf("%s: stats %+v, reference %+v", label, gotStats, wantStats)
					}
					for v := range wantRes {
						if gotRes[v] != wantRes[v] {
							t.Fatalf("%s: vertex %d result %d, reference %d", label, v, gotRes[v], wantRes[v])
						}
					}
				}
				for _, ec := range wordPlaneEngines {
					gotRes := make([]int64, gc.g.N())
					gotStats, gotErr := ec.eng.Run(context.Background(), topo, pc.word(topo, gotRes), maxRounds)
					check("word/"+ec.name, gotRes, gotStats, gotErr)
				}
				// The word program through the reference plane.
				gotRes := make([]int64, gc.g.N())
				gotStats, gotErr := runReference(topo, pc.word(topo, gotRes), maxRounds)
				check("word/reference", gotRes, gotStats, gotErr)
			})
		}
	}
}

// --- active sets -------------------------------------------------------------

// wordActive is a word program with an ActiveSet. Every fourth round
// steps every running vertex; in any other round vertex v acts when
// (7v + round) mod 5 = 0. An acting vertex folds its inbox into its result
// and picks a new word or, one time in four, silence; it halts in the
// first round it acts at or after 3 + v mod 11, so vertices halt in subset
// rounds and in all-rounds. A vertex that does not act keeps its result
// and returns its word, which is what lets Active leave it out.
// WordBits spreads the words over sizes 0 to 64 bits, so a round's
// largest message moves as its holder changes its word, goes silent or
// halts.
type wordActive struct {
	t       *sim.Topology
	results []int64
	word    []sim.Word
	halted  []bool
	buf     []int32
}

func newWordActive(t *sim.Topology, results []int64) *wordActive {
	n := t.G.N()
	p := &wordActive{t: t, results: results, word: make([]sim.Word, n), halted: make([]bool, n), buf: make([]int32, 0, n)}
	for v := range p.word {
		p.word[v] = sim.NoWord
	}
	return p
}

func (*wordActive) acts(v, round int) bool { return round%4 == 0 || (7*v+round)%5 == 0 }

func (*wordActive) Scratch(int) int { return 0 }

func (p *wordActive) Active(round int) ([]int32, bool) {
	if round%4 == 0 {
		return nil, true
	}
	vs := p.buf[:0]
	for v := range p.word {
		if !p.halted[v] && p.acts(v, round) {
			vs = append(vs, int32(v))
		}
	}
	return vs, false
}

func (p *wordActive) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	if !p.acts(v, round) {
		return p.word[v], false
	}
	acc := p.results[v]*31 + 1
	for port, w := range in {
		if w != sim.NoWord {
			acc = acc*31 + w + int64(port)
		}
	}
	p.results[v] = acc
	id := p.t.ID(v)
	if (id+int64(round))%4 == 3 {
		p.word[v] = sim.NoWord
	} else {
		p.word[v] = (id*37 + int64(round)*11) % 1000
	}
	p.halted[v] = round >= 3+v%11
	return p.word[v], p.halted[v]
}

func (*wordActive) WordBits(w sim.Word) int64 { return w % 65 }

// activeHidden is a wordActive behind a wrapper without Active, so the
// engine steps every running vertex in every round.
type activeHidden struct{ p *wordActive }

func (h activeHidden) Scratch(maxDeg int) int { return h.p.Scratch(maxDeg) }

func (h activeHidden) StepWord(v, round int, in, scratch []sim.Word) (sim.Word, bool) {
	return h.p.StepWord(v, round, in, scratch)
}

func (h activeHidden) WordBits(w sim.Word) int64 { return h.p.WordBits(w) }

// activeMutant is a wordActive whose active set drops the first acting
// vertex of round 1.
type activeMutant struct{ *wordActive }

func (m activeMutant) Active(round int) ([]int32, bool) {
	vs, all := m.wordActive.Active(round)
	if round == 1 && len(vs) > 0 {
		vs = vs[1:]
	}
	return vs, all
}

// activeDiff runs f on every engine and returns the first difference of
// results, Stats or error from the reference executor, which ignores
// Active and steps every running vertex; "" when there is none.
func activeDiff(g *graph.Graph, f func(*sim.Topology, []int64) sim.WordProgram) string {
	const maxRounds = 64
	topo := sim.NewTopology(g)
	wantRes := make([]int64, g.N())
	wantStats, wantErr := runReference(topo, f(topo, wantRes), maxRounds)
	for _, ec := range wordPlaneEngines {
		gotRes := make([]int64, g.N())
		gotStats, gotErr := ec.eng.Run(context.Background(), topo, f(topo, gotRes), maxRounds)
		if (wantErr == nil) != (gotErr == nil) {
			return fmt.Sprintf("%s: error %v, reference %v", ec.name, gotErr, wantErr)
		}
		if gotStats != wantStats {
			return fmt.Sprintf("%s: stats %+v, reference %+v", ec.name, gotStats, wantStats)
		}
		for v := range wantRes {
			if gotRes[v] != wantRes[v] {
				return fmt.Sprintf("%s: vertex %d result %d, reference %d", ec.name, v, gotRes[v], wantRes[v])
			}
		}
	}
	return ""
}

// TestActiveSetMatchesReference runs wordActive over the word-plane grid
// on every engine: results and Stats must be those of the reference
// executor, which steps every running vertex.
func TestActiveSetMatchesReference(t *testing.T) {
	for _, gc := range wordPlaneGraphs() {
		t.Run(gc.name, func(t *testing.T) {
			if diff := activeDiff(gc.g, func(topo *sim.Topology, res []int64) sim.WordProgram {
				return newWordActive(topo, res)
			}); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestActiveSetMutantFails checks that the comparison above catches an
// active set missing one vertex that acts.
func TestActiveSetMutantFails(t *testing.T) {
	if diff := activeDiff(planeRandomGraph(1, 60, 0.15), func(topo *sim.Topology, res []int64) sim.WordProgram {
		return activeMutant{newWordActive(topo, res)}
	}); diff == "" {
		t.Fatal("an active set that drops an acting vertex matched the reference")
	}
}

// TestActiveSetRoundEvents compares the RoundEvent stream and the Stats
// of wordActive with those of the same program with Active hidden, on
// every graph of the grid and every engine. The cap of 40 bits makes some
// rounds violations and others not. Some subset round must carry a
// smaller largest message than the round before it, so the running
// maximum is exercised.
func TestActiveSetRoundEvents(t *testing.T) {
	const maxRounds = 64
	run := func(eng sim.Engine, topo *sim.Topology, f sim.Factory) ([]sim.RoundEvent, sim.Stats) {
		var events []sim.RoundEvent
		stats, err := sim.Instrumented(eng, func(ev sim.RoundEvent) { events = append(events, ev) }, 40).Run(context.Background(), topo, f, maxRounds)
		if err != nil {
			t.Fatal(err)
		}
		return events, stats
	}
	drops := 0
	var violations, rounds int64
	for _, gc := range wordPlaneGraphs() {
		topo := sim.NewTopology(gc.g)
		for _, ec := range wordPlaneEngines {
			want, wantStats := run(ec.eng, topo, activeHidden{newWordActive(topo, make([]int64, gc.g.N()))})
			got, gotStats := run(ec.eng, topo, newWordActive(topo, make([]int64, gc.g.N())))
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d rounds, %d with Active hidden", gc.name, ec.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: round %d event %+v, with Active hidden %+v", gc.name, ec.name, i, got[i], want[i])
				}
				if i > 0 && i%4 != 0 && got[i].RoundMaxBits < got[i-1].RoundMaxBits {
					drops++
				}
			}
			if gotStats != wantStats {
				t.Fatalf("%s/%s: stats %+v, with Active hidden %+v", gc.name, ec.name, gotStats, wantStats)
			}
			violations += gotStats.CongestViolations
			rounds += int64(gotStats.Rounds)
		}
	}
	if drops == 0 {
		t.Fatal("no subset round lowered the largest message: the running maximum went unexercised")
	}
	if violations == 0 || violations == rounds {
		t.Fatalf("%d of %d rounds exceeded the 40-bit cap, want some but not all", violations, rounds)
	}
}

// activeExchange is wordExchange with an ActiveSet: every fourth round,
// and the last, steps every vertex; any other round steps the vertices
// ≡ round (mod 3), from lists built with the program.
type activeExchange struct {
	rounds int
	word   []sim.Word
	thirds [3][]int32
}

func activeExchangeProgram(n, rounds int) sim.Factory {
	p := &activeExchange{rounds: rounds, word: make([]sim.Word, n)}
	for v := 0; v < n; v++ {
		p.thirds[v%3] = append(p.thirds[v%3], int32(v))
	}
	return p
}

func (*activeExchange) Scratch(int) int { return 0 }

func (p *activeExchange) everyone(round int) bool { return round%4 == 0 || round == p.rounds-1 }

func (p *activeExchange) Active(round int) ([]int32, bool) {
	if p.everyone(round) {
		return nil, true
	}
	return p.thirds[round%3], false
}

func (p *activeExchange) StepWord(v, round int, _, _ []sim.Word) (sim.Word, bool) {
	if p.everyone(round) || v%3 == round%3 {
		p.word[v] = int64(round) + 1_000_000
	}
	return p.word[v], round >= p.rounds-1
}

// TestActiveSetSteadyStateAllocFree pins the active-set path — shard
// parts of the active set, the running sums and the carry — at zero heap
// allocations per round on both sequential engines.
func TestActiveSetSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(8, 400, 0.04)
	topo := sim.NewTopology(g)
	for _, ec := range []struct {
		name string
		eng  sim.Engine
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
	} {
		t.Run(ec.name, func(t *testing.T) {
			run := func(rounds int) {
				if _, err := ec.eng.Run(context.Background(), topo, activeExchangeProgram(g.N(), rounds), rounds+2); err != nil {
					t.Fatal(err)
				}
			}
			short, long := shortLongAllocs(run)
			if long != short {
				t.Fatalf("active-set rounds allocate: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
					long-short, long, short)
			}
		})
	}
}

// --- allocation regression -------------------------------------------------

// wordExchange is the word-plane counterpart of exchangeProgram for
// steady-state allocation pinning. Unlike the any plane — where a port
// program sending a fresh value relies on the runtime's small-integer
// interface cache — the word plane is alloc-free for arbitrary word
// values; the payloads here exceed the 0..255 cache range to prove it.
type wordExchange struct{ rounds int }

func wordExchangeProgram(rounds int) sim.Factory { return &wordExchange{rounds: rounds} }

func (*wordExchange) Scratch(int) int { return 0 }

func (p *wordExchange) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	return int64(round) + 1_000_000, round >= p.rounds-1
}

// TestWordPlaneSteadyStateAllocFree pins the packed plane's contract on
// both sequential engines: after instance setup, zero heap allocations
// per round, payload values notwithstanding.
func TestWordPlaneSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(7, 400, 0.04)
	topo := sim.NewTopology(g)
	for _, ec := range []struct {
		name string
		run  func(ctx context.Context, t *sim.Topology, f sim.Factory, maxRounds int) (sim.Stats, error)
	}{
		{"sequential", sim.Sequential.Run},
		{"reverse", sim.ReverseSequential.Run},
	} {
		t.Run(ec.name, func(t *testing.T) {
			run := func(rounds int) {
				if _, err := ec.run(context.Background(), topo, wordExchangeProgram(rounds), rounds+2); err != nil {
					t.Fatal(err)
				}
			}
			short, long := shortLongAllocs(run)
			if long != short {
				t.Fatalf("word plane allocates per round: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
					long-short, long, short)
			}
		})
	}
}

// TestLinePlaneSteadyStateAllocFree pins the word plane's gather over
// line-table rows, and the active-set sums that take a row's length as the
// degree, at zero heap allocations per round on both sequential engines.
func TestLinePlaneSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(9, 200, 0.04)
	line, err := graph.NewLineTable(g)
	if err != nil {
		t.Fatal(err)
	}
	topo := &sim.Topology{G: g, Line: line}
	for _, ec := range []struct {
		name string
		eng  sim.Engine
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
	} {
		for _, pc := range []struct {
			name string
			prog func(rounds int) sim.Factory
		}{
			{"words", wordExchangeProgram},
			{"active", func(rounds int) sim.Factory { return activeExchangeProgram(topo.N(), rounds) }},
		} {
			t.Run(ec.name+"/"+pc.name, func(t *testing.T) {
				run := func(rounds int) {
					if _, err := ec.eng.Run(context.Background(), topo, pc.prog(rounds), rounds+2); err != nil {
						t.Fatal(err)
					}
				}
				short, long := shortLongAllocs(run)
				if long != short {
					t.Fatalf("line plane allocates per round: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
						long-short, long, short)
				}
			})
		}
	}
}

// TestWordPlaneRunMemoryPerVertex pins the word plane's per-run storage
// at a per-vertex size: on the dense K300 (89,700 arcs) a whole run must
// allocate less than 8 bytes per arc, which one arc-sized []Word slab
// alone would reach.
func TestWordPlaneRunMemoryPerVertex(t *testing.T) {
	g := graph.Complete(300)
	topo := sim.NewTopology(g)
	bound := uint64(8 * g.NumArcs())
	run := func() {
		if _, err := sim.Sequential.Run(context.Background(), topo, wordExchangeProgram(8), 10); err != nil {
			t.Fatal(err)
		}
	}
	run()
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		if b := m1.TotalAlloc - m0.TotalAlloc; b < best {
			best = b
		}
	}
	if best >= bound {
		t.Fatalf("word-plane run on K300 allocated %d B, want < 8·arcs = %d B", best, bound)
	}
	t.Logf("word-plane run on K300: %d B (bound %d B)", best, bound)
}
