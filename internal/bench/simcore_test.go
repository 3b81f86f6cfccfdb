package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
)

func sampleReport() *SimCoreReport {
	return &SimCoreReport{
		Schema:    SimCoreSchema,
		GoVersion: "go1.24.0",
		GOOS:      "linux",
		GOARCH:    "amd64",
		NumCPU:    4,
		Results: []SimCoreResult{
			{Name: "plane/a", NsPerOp: 1000, AllocsPerOp: 10, AllocsPerRound: 0, Rounds: 32, Messages: 640},
			{Name: "algo/b", NsPerOp: 5000, AllocsPerOp: 200, AllocsPerRound: -1, Colors: 49, Rounds: 81, Messages: 9000},
		},
	}
}

func TestCompareSimCoreAccepts(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	// Faster and leaner always passes; within-band jitter passes.
	cur.Results[0].NsPerOp = 500
	cur.Results[1].NsPerOp = 5700 // +14% < 15%
	problems, notes := CompareSimCore(base, cur, 0.15)
	if len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
	if len(notes) != 0 {
		t.Fatalf("same runner class must not produce notes: %v", notes)
	}
}

// TestCompareSimCoreCrossMachine pins the environment gate: on a different
// runner class the wall-clock bands are skipped (with a note telling the
// operator to regenerate), while deterministic drift and the
// zero-allocs-per-round pin still fail.
func TestCompareSimCoreCrossMachine(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.NumCPU = 16
	cur.Results[0].NsPerOp = 10 * base.Results[0].NsPerOp // would fail in-class
	problems, notes := CompareSimCore(base, cur, 0.15)
	if len(problems) != 0 {
		t.Fatalf("cross-machine ns/op must not be a problem: %v", problems)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "runner class") {
		t.Fatalf("expected a runner-class note, got %v", notes)
	}
	cur.Results[0].AllocsPerRound = 3
	cur.Results[1].Rounds = 99
	problems, _ = CompareSimCore(base, cur, 0.15)
	if len(problems) != 2 {
		t.Fatalf("machine-independent checks must still fire cross-machine, got %v", problems)
	}
}

// TestCompareSimCoreAllocsAcrossCPUCounts pins the allocs/op band on a
// runner class that differs only in CPU count: a workload off the
// parallel engine allocates the same on any CPU count, so 20% over its
// baseline fails; a /parallel workload's band stays skipped, with a note.
func TestCompareSimCoreAllocsAcrossCPUCounts(t *testing.T) {
	base := sampleReport()
	base.Results = append(base.Results, SimCoreResult{Name: "plane/c/parallel-10k", NsPerOp: 800, AllocsPerOp: 100, AllocsPerRound: -1})
	cur := sampleReport()
	cur.Results = append(cur.Results, base.Results[2])
	cur.NumCPU = 2
	cur.Results[1].AllocsPerOp = 240 // 20% over algo/b's 200
	cur.Results[2].AllocsPerOp = 120 // 20% over the parallel row's 100
	problems, notes := CompareSimCore(base, cur, 0.15)
	if len(problems) != 1 || problems[0].Workload != "algo/b" || !strings.Contains(problems[0].Detail, "allocs/op regressed") {
		t.Fatalf("want exactly algo/b's allocs/op regression, got %v", problems)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "/parallel workloads' allocs/op and bytes/op bands skipped") {
		t.Fatalf("want a note that the parallel allocs band is skipped, got %v", notes)
	}
	// A different toolchain disarms the band for every workload.
	cur.GoVersion = "go1.99.0"
	if problems, _ := CompareSimCore(base, cur, 0.15); len(problems) != 0 {
		t.Fatalf("allocs/op band armed across toolchains: %v", problems)
	}
}

// TestCompareSimCoreBytesAcrossCPUCounts pins the bytes/op band on the
// same terms as the allocs/op band: on a runner class that differs only
// in CPU count, a workload off the parallel engine 20% over its bytes
// baseline fails, while a /parallel workload's band stays skipped, with a
// note naming it.
func TestCompareSimCoreBytesAcrossCPUCounts(t *testing.T) {
	base := sampleReport()
	base.Results[1].BytesPerOp = 1000
	base.Results = append(base.Results, SimCoreResult{Name: "plane/c/parallel-10k", NsPerOp: 800, AllocsPerOp: 100, BytesPerOp: 5000, AllocsPerRound: -1})
	cur := sampleReport()
	cur.Results[1].BytesPerOp = 1000
	cur.Results = append(cur.Results, base.Results[2])
	cur.NumCPU = 2
	cur.Results[1].BytesPerOp = 1200 // 20% over algo/b's 1000
	cur.Results[2].BytesPerOp = 6000 // 20% over the parallel row's 5000
	problems, notes := CompareSimCore(base, cur, 0.15)
	if len(problems) != 1 || problems[0].Workload != "algo/b" || !strings.Contains(problems[0].Detail, "bytes/op regressed") {
		t.Fatalf("want exactly algo/b's bytes/op regression, got %v", problems)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "bytes/op bands skipped") {
		t.Fatalf("want a note that the parallel bytes band is skipped, got %v", notes)
	}
	// In the baseline's own class the parallel row's band arms too.
	cur.NumCPU = base.NumCPU
	problems, _ = CompareSimCore(base, cur, 0.15)
	if len(problems) != 2 {
		t.Fatalf("want both bytes/op regressions in class, got %v", problems)
	}
}

func TestCompareSimCoreFlagsRegressions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SimCoreReport)
		want   string
	}{
		{"ns", func(r *SimCoreReport) { r.Results[0].NsPerOp = 1200 }, "ns/op regressed"},
		{"allocs", func(r *SimCoreReport) { r.Results[1].AllocsPerOp = 300 }, "allocs/op regressed"},
		{"bytes", func(r *SimCoreReport) { r.Results[0].BytesPerOp = 1 }, "bytes/op regressed"},
		{"per-round", func(r *SimCoreReport) { r.Results[0].AllocsPerRound = 2 }, "steady-state rounds allocate"},
		{"rounds", func(r *SimCoreReport) { r.Results[0].Rounds = 33 }, "deterministic metrics drifted"},
		{"messages", func(r *SimCoreReport) { r.Results[1].Messages = 9001 }, "deterministic metrics drifted"},
		{"colors", func(r *SimCoreReport) { r.Results[1].Colors = 50 }, "deterministic metrics drifted"},
		{"missing", func(r *SimCoreReport) { r.Results = r.Results[:1] }, "workload missing"},
		{"extra", func(r *SimCoreReport) {
			r.Results = append(r.Results, SimCoreResult{Name: "plane/new"})
		}, "not in baseline"},
		{"schema", func(r *SimCoreReport) { r.Schema = 99 }, "schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := sampleReport()
			tc.mutate(cur)
			problems, _ := CompareSimCore(sampleReport(), cur, 0.15)
			if len(problems) == 0 {
				t.Fatal("regression not flagged")
			}
			found := false
			for _, p := range problems {
				if strings.Contains(p.String(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("problems %v do not mention %q", problems, tc.want)
			}
		})
	}
}

// TestCompareSimCoreAllocsPerRoundSentinel pins the -1 "unmeasured"
// semantics: both sides unmeasured is silent; a workload that stops
// measuring a pinned metric is a problem; a workload that starts
// measuring one is a note (regenerate to pin); a measured nonzero value
// is banded like the other machine-dependent metrics.
func TestCompareSimCoreAllocsPerRoundSentinel(t *testing.T) {
	t.Run("both-unmeasured", func(t *testing.T) {
		problems, notes := CompareSimCore(sampleReport(), sampleReport(), 0.15)
		if len(problems) != 0 || len(notes) != 0 {
			t.Fatalf("unexpected output: %v %v", problems, notes)
		}
	})
	t.Run("stopped-measuring", func(t *testing.T) {
		cur := sampleReport()
		cur.Results[0].AllocsPerRound = -1 // baseline pins 0
		problems, _ := CompareSimCore(sampleReport(), cur, 0.15)
		if len(problems) != 1 || !strings.Contains(problems[0].String(), "no longer measured") {
			t.Fatalf("dropping a pinned allocs/round must fail, got %v", problems)
		}
	})
	t.Run("started-measuring", func(t *testing.T) {
		cur := sampleReport()
		cur.Results[1].AllocsPerRound = 2 // baseline has the -1 sentinel
		problems, notes := CompareSimCore(sampleReport(), cur, 0.15)
		if len(problems) != 0 {
			t.Fatalf("newly measured allocs/round must not fail, got %v", problems)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "now measured") {
			t.Fatalf("expected a regenerate note, got %v", notes)
		}
	})
	t.Run("nonzero-banded", func(t *testing.T) {
		base := sampleReport()
		base.Results[0].AllocsPerRound = 10
		cur := sampleReport()
		cur.Results[0].AllocsPerRound = 11 // +10% < 15%
		if problems, _ := CompareSimCore(base, cur, 0.15); len(problems) != 0 {
			t.Fatalf("in-band allocs/round must pass, got %v", problems)
		}
		cur.Results[0].AllocsPerRound = 12 // +20% > 15%
		problems, _ := CompareSimCore(base, cur, 0.15)
		if len(problems) != 1 || !strings.Contains(problems[0].String(), "allocs/round regressed") {
			t.Fatalf("out-of-band allocs/round must fail, got %v", problems)
		}
	})
}

// TestCompareSimCoreParallelGating pins the CPU-count gate: presence
// mismatches of parallel-engine workloads are environment notes (a
// single-CPU runner cannot measure them), never regressions — in both
// directions. Non-parallel workloads keep the strict presence check.
func TestCompareSimCoreParallelGating(t *testing.T) {
	par := SimCoreResult{Name: "plane/x/parallel-10k", NsPerOp: 900, AllocsPerOp: 12, AllocsPerRound: -1, Rounds: 32, Messages: 640}
	t.Run("baseline-has-it-current-does-not", func(t *testing.T) {
		base := sampleReport()
		base.Results = append(base.Results, par)
		cur := sampleReport()
		cur.NumCPU = 1
		problems, notes := CompareSimCore(base, cur, 0.15)
		if len(problems) != 0 {
			t.Fatalf("gated absence must not be a problem: %v", problems)
		}
		found := false
		for _, n := range notes {
			if strings.Contains(n, "parallel workloads need >1 CPU") {
				found = true
			}
		}
		if !found {
			t.Fatalf("expected a gating note, got %v", notes)
		}
	})
	t.Run("current-has-it-baseline-does-not", func(t *testing.T) {
		base := sampleReport()
		base.NumCPU = 1
		cur := sampleReport()
		cur.Results = append(cur.Results, par)
		problems, notes := CompareSimCore(base, cur, 0.15)
		if len(problems) != 0 {
			t.Fatalf("gated extra workload must not be a problem: %v", problems)
		}
		found := false
		for _, n := range notes {
			if strings.Contains(n, "absent from the baseline") {
				found = true
			}
		}
		if !found {
			t.Fatalf("expected a regenerate note, got %v", notes)
		}
	})
	// The leniency is CPU-conditional: on a runner that CAN measure the
	// parallel workloads, losing one (or having an unguarded extra one) is
	// a regression like any other.
	t.Run("lost-on-multi-cpu-runner-is-a-problem", func(t *testing.T) {
		base := sampleReport()
		base.Results = append(base.Results, par)
		cur := sampleReport() // NumCPU = 4: could have measured it
		problems, _ := CompareSimCore(base, cur, 0.15)
		if len(problems) != 1 || !strings.Contains(problems[0].String(), "workload missing") {
			t.Fatalf("losing a parallel workload on a multi-CPU runner must fail, got %v", problems)
		}
	})
	t.Run("extra-vs-multi-cpu-baseline-is-a-problem", func(t *testing.T) {
		base := sampleReport() // NumCPU = 4: would have recorded it
		cur := sampleReport()
		cur.Results = append(cur.Results, par)
		problems, _ := CompareSimCore(base, cur, 0.15)
		if len(problems) != 1 || !strings.Contains(problems[0].String(), "not in baseline") {
			t.Fatalf("an unguarded parallel workload vs a multi-CPU baseline must fail, got %v", problems)
		}
	})
}

// TestCompareSimCoreMissingBaselineEntryDirection: an extra baseline entry
// (current run lost a workload) and an extra current entry (baseline is
// stale) are both problems — the check must fail until the baseline is
// regenerated, never silently skip.
func TestCompareSimCoreSymmetry(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Results[0].Name = "plane/renamed"
	problems, _ := CompareSimCore(base, cur, 0.15)
	if len(problems) != 2 {
		t.Fatalf("want missing+extra problems, got %v", problems)
	}
}

// TestSimCoreWordProgramsEnginesAgree runs the suite's two word programs
// on every engine, on 600 vertices (two shards' worth for the parallel
// engine): Stats and every vertex's folded inbox must agree, and the
// traffic must be the any-plane exchange's, port for port.
func TestSimCoreWordProgramsEnginesAgree(t *testing.T) {
	ctx := context.Background()
	g, err := gen.NearRegular(600, simCoreDeg, simCoreSeed)
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.NewTopology(g)
	const rounds = 12
	anyStats, err := sim.Sequential.Run(ctx, topo, exchangeFactory(rounds), rounds+2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog func() (sim.Factory, []int64)
		bits int64
	}{
		{"words", func() (sim.Factory, []int64) {
			p := exchangeWordsFactory(rounds).(*exchangeWords)
			return p, p.acc
		}, 64},
		{"sized", func() (sim.Factory, []int64) {
			p := exchangeSizedFactory(rounds).(*sizedExchange)
			return p, p.acc
		}, 7},
	} {
		var wantStats sim.Stats
		var wantAcc []int64
		for i, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential, sim.Parallel} {
			prog, acc := c.prog()
			stats, err := eng.Run(ctx, topo, prog, rounds+2)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if i == 0 {
				wantStats, wantAcc = stats, acc
				if stats.Messages != anyStats.Messages || stats.Bits != c.bits*anyStats.Messages {
					t.Fatalf("%s: stats %+v, any-plane exchange %+v at %d bits a word", c.name, stats, anyStats, c.bits)
				}
				continue
			}
			if stats != wantStats {
				t.Fatalf("%s engine %d: stats %+v, sequential %+v", c.name, eng, stats, wantStats)
			}
			for v := range wantAcc {
				if acc[v] != wantAcc[v] {
					t.Fatalf("%s engine %d: vertex %d folded %d, sequential %d", c.name, eng, v, acc[v], wantAcc[v])
				}
			}
		}
	}
}

// TestSimCoreDeterministicMetricsStable pins that repeated executions of a
// suite workload agree on the deterministic columns across every engine —
// the property the cross-machine exact comparison relies on. The full
// benchmark suite is too slow for the test tier, so this drives the
// underlying workload directly.
func TestSimCoreDeterministicMetricsStable(t *testing.T) {
	ctx := context.Background()
	g, err := Workload(16, simCoreSeed)
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.NewTopology(g)
	var want sim.Stats
	for i, eng := range []sim.Engine{sim.Sequential, sim.Sequential, sim.Parallel, sim.ReverseSequential} {
		stats, err := eng.Run(ctx, topo, wavefrontFactory(simCoreRounds), simCoreRounds+2)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = stats
			continue
		}
		if stats != want {
			t.Fatalf("engine %v: deterministic metrics differ: %+v vs %+v", eng, stats, want)
		}
	}
	if want.Rounds != simCoreRounds {
		t.Fatalf("wavefront rounds = %d, want %d", want.Rounds, simCoreRounds)
	}
}
