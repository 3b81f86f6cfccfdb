package sim_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// sizedExchange is the exchange traffic pattern as a word program with
// honest bit accounting: every payload is round&0x7f, which fits in 7
// bits.
type sizedExchange struct{ rounds int }

func (sizedExchange) Scratch(int) int { return 0 }

func (m sizedExchange) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	return sim.Word(round & 0x7f), round >= m.rounds-1
}

func (sizedExchange) WordBits(w sim.Word) int64 { return 7 }

func sizedExchangeFactory(rounds int) sim.Factory { return sizedExchange{rounds: rounds} }

// pulseExchange is the unsized exchange with silent rounds: every vertex
// broadcasts a word, accounted at the 64-bit default, in rounds ≢ 2
// (mod 3), and nothing in the others.
type pulseExchange struct{ rounds int }

func (pulseExchange) Scratch(int) int { return 0 }

func (p pulseExchange) StepWord(v, round int, in, _ []sim.Word) (sim.Word, bool) {
	out := sim.NoWord
	if round%3 != 2 {
		out = sim.Word(round)
	}
	return out, round >= p.rounds-1
}

// capturedRun runs f on eng instrumented with capBits and a hook that
// records the round events.
func capturedRun(t *testing.T, eng sim.Engine, topo *sim.Topology, f sim.Factory, maxRounds int, capBits int64) (sim.Stats, []sim.RoundEvent) {
	t.Helper()
	var events []sim.RoundEvent
	stats, err := sim.Instrumented(eng, func(ev sim.RoundEvent) { events = append(events, ev) }, capBits).Run(
		context.Background(), topo, f, maxRounds)
	if err != nil {
		t.Fatal(err)
	}
	return stats, events
}

func TestCongestCapBits(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{1, 8}, {2, 8}, {16, 10}, {1024, 22}, {10_000, 28},
	}
	for _, c := range cases {
		if got := sim.CongestCapBits(c.n); got != c.want {
			t.Errorf("CongestCapBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// A cap that every message respects: honest 7-bit payloads under the
// CONGEST cap of a 64-cycle (14 bits) record no violation, and Stats and
// every round event report the true message size.
func TestBandwidthAccountingClean(t *testing.T) {
	g := graph.Cycle(64)
	topo := sim.NewTopology(g)
	const rounds = 10
	stats, events := capturedRun(t, sim.Sequential, topo, sizedExchangeFactory(rounds), rounds+2, sim.CongestCapBits(g.N()))
	if stats.CongestViolations != 0 {
		t.Errorf("clean run has %d violations", stats.CongestViolations)
	}
	if stats.Rounds != rounds || len(events) != rounds {
		t.Errorf("%d rounds and %d events, want %d", stats.Rounds, len(events), rounds)
	}
	if stats.MaxMessageBits != 7 {
		t.Errorf("max message bits = %d, want 7", stats.MaxMessageBits)
	}
	// Every vertex sends 2 messages of 7 bits per round.
	if want := int64(rounds * 2 * 64 * 7); stats.Bits != want {
		t.Errorf("bits = %d, want %d", stats.Bits, want)
	}
	for i, ev := range events {
		if ev.RoundMaxBits != 7 {
			t.Errorf("round %d: RoundMaxBits = %d, want 7", i, ev.RoundMaxBits)
		}
	}
}

// The cap's boundary on the unsized pulse: a round whose largest message
// equals the cap is no violation, one bit less counts every talkative
// round, silent rounds never count, and a zero cap counts nothing. All
// three engines give identical Stats and event streams, and Seq and Par
// sum the violations of capped runs.
func TestBandwidthViolations(t *testing.T) {
	g := graph.Cycle(16)
	topo := sim.NewTopology(g)
	const rounds, talkative = 9, 6
	var want [3]sim.Stats
	var wantEvents [3][]sim.RoundEvent
	for i, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential, sim.Parallel} {
		for j, c := range []struct {
			capBits, violations int64
		}{{64, 0}, {63, talkative}, {0, 0}} {
			stats, events := capturedRun(t, eng, topo, pulseExchange{rounds: rounds}, rounds+2, c.capBits)
			if stats.CongestViolations != c.violations {
				t.Errorf("engine %d, cap %d: %d violations, want %d", eng, c.capBits, stats.CongestViolations, c.violations)
			}
			for r, ev := range events {
				if silent := r%3 == 2; silent != (ev.RoundMaxBits == 0) {
					t.Errorf("engine %d round %d: RoundMaxBits = %d", eng, r, ev.RoundMaxBits)
				}
			}
			if i == 0 {
				want[j], wantEvents[j] = stats, events
			} else if stats != want[j] || !reflect.DeepEqual(events, wantEvents[j]) {
				t.Errorf("engine %d, cap %d: stats %+v and events differ from sequential's %+v", eng, c.capBits, stats, want[j])
			}
		}
	}
	// Port-plane messages are accounted at 64 bits too: the exchange
	// violates a 10-bit cap in each of its rounds.
	exchange, _ := capturedRun(t, sim.Sequential, topo, exchangeProgram(topo, 4), 6, 10)
	if exchange.CongestViolations != 4 {
		t.Errorf("exchange under a 10-bit cap: %d violations, want 4", exchange.CongestViolations)
	}
	capped := want[1]
	if got := capped.Seq(exchange).CongestViolations; got != talkative+4 {
		t.Errorf("Seq of capped runs: %d violations, want %d", got, talkative+4)
	}
	if got := capped.Par(exchange).CongestViolations; got != talkative+4 {
		t.Errorf("Par of capped runs: %d violations, want %d", got, talkative+4)
	}
}

// RoundEvent carries the per-round bandwidth view; it must agree with the
// cumulative Stats, and every engine must deliver the same event stream.
// The graph has 512 vertices (2·stepGrain), so the parallel engine steps
// it as several shards on a multi-CPU machine, and the program halts
// vertices in staggered waves, so rounds differ in traffic and in running
// count.
func TestRoundEventBandwidthFields(t *testing.T) {
	g := planeRandomGraph(9, 512, 0.02)
	topo := sim.NewTopology(g)
	const span = 6
	var want []sim.RoundEvent
	for _, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential, sim.Parallel} {
		stats, events := capturedRun(t, eng, topo, wavefrontProgram(topo, span), span+2, sim.CongestCapBits(g.N()))
		if len(events) != stats.Rounds || stats.Rounds != span {
			t.Fatalf("engine %d: %d events for %d rounds, want %d", eng, len(events), stats.Rounds, span)
		}
		if r := events[0].Running; r == 0 || r == g.N() {
			t.Fatalf("engine %d: %d of %d vertices running after round 0, want a staggered halt", eng, r, g.N())
		}
		var bits int64
		for i, ev := range events {
			if ev.Stats.Bits <= bits {
				t.Errorf("engine %d round %d: cumulative bits %d after %d", eng, i, ev.Stats.Bits, bits)
			}
			bits = ev.Stats.Bits
			if ev.RoundMaxBits != 64 {
				t.Errorf("engine %d round %d: RoundMaxBits = %d, want 64", eng, i, ev.RoundMaxBits)
			}
			// Every round talks, in 64-bit messages over a 20-bit cap.
			if ev.Stats.CongestViolations != int64(i+1) {
				t.Errorf("engine %d round %d: %d violations so far, want %d", eng, i, ev.Stats.CongestViolations, i+1)
			}
		}
		if events[len(events)-1].Stats != stats {
			t.Errorf("engine %d: last event's stats %+v, run's %+v", eng, events[len(events)-1].Stats, stats)
		}
		if want == nil {
			want = events
		} else if !reflect.DeepEqual(events, want) {
			t.Fatalf("engine %d: round events %+v, want %+v", eng, events, want)
		}
	}
}

// The zero-alloc contract survives instrumentation: hook and cap
// attached, every round a violation, still no allocations per round.
func TestInstrumentedSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(7, 400, 0.04)
	topo := sim.NewTopology(g)
	hook := func(sim.RoundEvent) {}
	exec := sim.Instrumented(sim.Sequential, hook, sim.CongestCapBits(g.N()))
	run := func(rounds int) {
		stats, err := exec.Run(context.Background(), topo, exchangeProgram(topo, rounds), rounds+2)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CongestViolations != int64(rounds) {
			t.Fatalf("%d violations in %d rounds of 64-bit messages", stats.CongestViolations, rounds)
		}
	}
	short, long := shortLongAllocs(run)
	if long != short {
		t.Fatalf("instrumented engine allocates per round: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
			long-short, long, short)
	}
}
