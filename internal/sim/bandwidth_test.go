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

// The accountant under a cap that everything respects: no violations, and
// the histogram records every talkative round at the right bucket.
func TestBandwidthAccountingClean(t *testing.T) {
	g := graph.Cycle(64) // n=64: cap = 2*7 = 14 >= 7-bit payloads
	topo := sim.NewTopology(g)
	bw := &sim.Bandwidth{CapBits: sim.CongestCapBits(g.N())}
	const rounds = 10
	stats, err := sim.Instrumented(sim.Sequential, nil, bw).Run(
		context.Background(), topo, sizedExchangeFactory(rounds), rounds+2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CongestViolations != 0 {
		t.Errorf("clean run has %d violations", stats.CongestViolations)
	}
	if bw.Violations() != 0 {
		t.Errorf("accountant reports %d violations", bw.Violations())
	}
	if bw.Rounds() != rounds {
		t.Errorf("accountant saw %d rounds, want %d", bw.Rounds(), rounds)
	}
	if bw.MaxMessageBits() != 7 {
		t.Errorf("max message bits = %d, want 7", bw.MaxMessageBits())
	}
	// Every vertex sends 2 messages of 7 bits per round.
	wantRoundBits := int64(2 * 64 * 7)
	if bw.MaxRoundBits() != wantRoundBits {
		t.Errorf("max round bits = %d, want %d", bw.MaxRoundBits(), wantRoundBits)
	}
	// All rounds land in the 7-bits bucket: smallest e with 7 <= 2^e is 3.
	hist := bw.HistBuckets()
	for e, c := range hist {
		want := int64(0)
		if e == 3 {
			want = rounds
		}
		if c != want {
			t.Errorf("bucket %d (le %d) = %d, want %d", e, sim.BucketBound(e), c, want)
		}
	}
}

// The accountant against a cap the program exceeds: default-accounted
// 64-bit words against a tight cap violate every talkative round, and
// Stats carries the count.
func TestBandwidthViolations(t *testing.T) {
	g := graph.Cycle(16)
	topo := sim.NewTopology(g)
	bw := &sim.Bandwidth{CapBits: 10}
	const rounds = 6
	for _, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential, sim.Parallel} {
		bw2 := &sim.Bandwidth{CapBits: 10}
		stats, err := sim.Instrumented(eng, nil, bw2).Run(
			context.Background(), topo, exchangeProgram(topo, rounds), rounds+2)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CongestViolations != rounds {
			t.Errorf("engine %d: %d violations, want %d", eng, stats.CongestViolations, rounds)
		}
	}
	// Shared accountant across executions accumulates.
	for i := 0; i < 3; i++ {
		if _, err := sim.Instrumented(sim.Sequential, nil, bw).Run(
			context.Background(), topo, exchangeProgram(topo, rounds), rounds+2); err != nil {
			t.Fatal(err)
		}
	}
	if bw.Violations() != 3*rounds {
		t.Errorf("shared accountant: %d violations, want %d", bw.Violations(), 3*rounds)
	}
	// Zero cap: account, don't judge.
	free := &sim.Bandwidth{}
	stats, err := sim.Instrumented(sim.Sequential, nil, free).Run(
		context.Background(), topo, exchangeProgram(topo, rounds), rounds+2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CongestViolations != 0 || free.Violations() != 0 {
		t.Errorf("capless accountant recorded violations")
	}
	if free.Rounds() != rounds || free.MaxMessageBits() != 64 {
		t.Errorf("capless accountant rounds=%d maxMsg=%d", free.Rounds(), free.MaxMessageBits())
	}
}

// RoundEvent carries the per-round bandwidth view; hook and accountant
// must agree with the cumulative Stats, and every engine must deliver the
// same event stream. The graph has 512 vertices (2·stepGrain), so the
// parallel engine steps it as several shards on a multi-CPU machine, and
// the program halts vertices in staggered waves, so rounds differ in
// traffic and in running count.
func TestRoundEventBandwidthFields(t *testing.T) {
	g := planeRandomGraph(9, 512, 0.02)
	topo := sim.NewTopology(g)
	const span = 6
	var want []sim.RoundEvent
	for _, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential, sim.Parallel} {
		var events []sim.RoundEvent
		hook := func(ev sim.RoundEvent) { events = append(events, ev) }
		bw := &sim.Bandwidth{CapBits: sim.CongestCapBits(g.N())}
		stats, err := sim.Instrumented(eng, hook, bw).Run(
			context.Background(), topo, wavefrontProgram(topo, span), span+2)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != stats.Rounds || stats.Rounds != span {
			t.Fatalf("engine %d: %d events for %d rounds, want %d", eng, len(events), stats.Rounds, span)
		}
		if r := events[0].Running; r == 0 || r == g.N() {
			t.Fatalf("engine %d: %d of %d vertices running after round 0, want a staggered halt", eng, r, g.N())
		}
		var sum int64
		for i, ev := range events {
			sum += ev.RoundBits
			if ev.Stats.Bits != sum {
				t.Errorf("engine %d round %d: cumulative bits %d, sum of RoundBits %d", eng, i, ev.Stats.Bits, sum)
			}
			if ev.RoundMaxBits != 64 {
				t.Errorf("engine %d round %d: RoundMaxBits = %d, want 64", eng, i, ev.RoundMaxBits)
			}
		}
		if sum != stats.Bits {
			t.Errorf("engine %d: RoundBits sum %d != Stats.Bits %d", eng, sum, stats.Bits)
		}
		if want == nil {
			want = events
		} else if !reflect.DeepEqual(events, want) {
			t.Fatalf("engine %d: round events %+v, want %+v", eng, events, want)
		}
	}
}

// The zero-alloc contract survives instrumentation: accountant attached,
// hook attached, still no allocations per round.
func TestInstrumentedSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(7, 400, 0.04)
	topo := sim.NewTopology(g)
	bw := &sim.Bandwidth{CapBits: sim.CongestCapBits(g.N())}
	hook := func(sim.RoundEvent) {}
	exec := sim.Instrumented(sim.Sequential, hook, bw)
	run := func(rounds int) {
		if _, err := exec.Run(context.Background(), topo, exchangeProgram(topo, rounds), rounds+2); err != nil {
			t.Fatal(err)
		}
	}
	short, long := shortLongAllocs(run)
	if long != short {
		t.Fatalf("instrumented engine allocates per round: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
			long-short, long, short)
	}
}
