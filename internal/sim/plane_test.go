package sim_test

// This file proves the simulator's data plane (see sim.go and DESIGN.md
// §7) equivalent to the straightforward per-vertex-slice implementation it
// replaced, and pins its performance contract:
//
//   - runReference below IS the old data plane (per-vertex inbox/outbox
//     slices, portRef delivery), kept as the executable specification of
//     one synchronous round; it steps a PortProgram or a WordProgram one
//     vertex at a time, directly, and delivers every port's message
//     itself;
//   - the equivalence matrix runs programs × graphs × engines and demands
//     identical per-vertex results and identical Stats against it;
//   - the algorithm-level matrix runs real colorings (Linial, both
//     reductions, the §5 peeling and merge, the §4 star partition, CD)
//     under every engine and demands identical colorings and Stats;
//   - the allocation tests pin the sequential engine's steady state at
//     zero heap allocations per round, and a port program's whole run at
//     no allocation per vertex;
//   - BenchmarkSimPlane* measure the plane against the reference on the
//     10k-vertex workload (make bench-check guards the JSON baseline).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arbor"
	"repro/internal/cd"
	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/star"
	"repro/internal/vc"
	"repro/internal/verify"
)

// --- the reference engine: the pre-CSR data plane --------------------------

type refPort struct {
	v    int32
	port int32
}

type refInstance struct {
	done      []bool
	remaining int
	in        [][]sim.Message
	out       [][]sim.Message
	peer      [][]refPort
}

func newRefInstance(t *sim.Topology) *refInstance {
	g := t.G
	n := g.N()
	inst := &refInstance{
		done:      make([]bool, n),
		remaining: n,
		in:        make([][]sim.Message, n),
		out:       make([][]sim.Message, n),
		peer:      make([][]refPort, n),
	}
	portOf := make([]map[int32]int32, n)
	for v := 0; v < n; v++ {
		adj := g.Adj(v)
		portOf[v] = make(map[int32]int32, len(adj))
		for p, a := range adj {
			portOf[v][a.Edge] = int32(p)
		}
	}
	for v := 0; v < n; v++ {
		adj := g.Adj(v)
		deg := len(adj)
		inst.in[v] = make([]sim.Message, deg)
		inst.out[v] = make([]sim.Message, deg)
		inst.peer[v] = make([]refPort, deg)
		for p, a := range adj {
			inst.peer[v][p] = refPort{v: a.To, port: portOf[a.To][a.Edge]}
		}
	}
	return inst
}

// refWord carries a word over the reference plane with its bit count.
type refWord struct {
	w    sim.Word
	bits int64
}

func (r refWord) Bits() int64 { return r.bits }

func refBits(m sim.Message) int64 {
	if s, ok := m.(sim.Sizer); ok {
		return s.Bits()
	}
	return 64
}

// refStep returns the step of one vertex of f on the reference plane,
// with one scratch slab of the program's size (the reference steps one
// vertex at a time, like one shard). A PortProgram steps on a detached
// outbox, its inbox listing the ports whose slot holds a message, and
// every port's send lands in its out slot; a WordProgram reads its inbox
// as words and broadcasts the returned word as a refWord carrying the
// program's bit accounting.
func refStep(f sim.Factory, g *graph.Graph) (func(v, round int, in, out []sim.Message) bool, error) {
	maxDeg := g.MaxDegree()
	scratch := make([]sim.Word, f.Scratch(maxDeg))
	switch p := f.(type) {
	case sim.WordProgram:
		sizer, _ := p.(sim.WordSizer)
		words := make([]sim.Word, maxDeg)
		return func(v, round int, in, out []sim.Message) bool {
			ws := words[:len(in)]
			for port, m := range in {
				ws[port] = sim.NoWord
				if m != nil {
					ws[port] = m.(refWord).w
				}
			}
			w, halted := p.StepWord(v, round, ws, scratch)
			if w != sim.NoWord {
				bits := int64(64)
				if sizer != nil {
					bits = sizer.WordBits(w)
				}
				for port := range out {
					out[port] = refWord{w: w, bits: bits}
				}
			}
			return halted
		}, nil
	case sim.PortProgram:
		var box sim.DetachedOutbox
		mail := make([]sim.Mail, 0, maxDeg)
		return func(v, round int, in, out []sim.Message) bool {
			mail = mail[:0]
			for port, m := range in {
				if m != nil {
					mail = append(mail, sim.Mail{Port: int32(port), Msg: m})
				}
			}
			return box.Step(p, g, v, round, mail, scratch, out)
		}, nil
	}
	return nil, fmt.Errorf("reference: program %T is neither a PortProgram nor a WordProgram", f)
}

// runReference executes the algorithm exactly as the old sequential engine
// did: step vertices in index order, deliver per-vertex outboxes through
// port references, clear outboxes of halted vertices every round. A line
// topology runs on its line graph, materialized with the canonical edge
// identifiers, as the engines ran it before line topologies existed.
func runReference(t *sim.Topology, f sim.Factory, maxRounds int) (sim.Stats, error) {
	if err := t.Validate(); err != nil {
		return sim.Stats{}, err
	}
	if t.Line != nil {
		t = materializeLine(t)
	}
	step, err := refStep(f, t.G)
	if err != nil {
		return sim.Stats{}, err
	}
	inst := newRefInstance(t)
	n := t.G.N()
	var stats sim.Stats
	for round := 0; ; round++ {
		if inst.remaining == 0 {
			break
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w after %d rounds", sim.ErrRoundLimit, round)
		}
		for v := 0; v < n; v++ {
			if inst.done[v] {
				continue
			}
			out := inst.out[v]
			for p := range out {
				out[p] = nil
			}
			if step(v, round, inst.in[v], out) {
				inst.done[v] = true
				inst.remaining--
			}
			for p := range out {
				if out[p] != nil {
					stats.Messages++
					b := refBits(out[p])
					stats.Bits += b
					if b > stats.MaxMessageBits {
						stats.MaxMessageBits = b
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			out := inst.out[v]
			for p, ref := range inst.peer[v] {
				inst.in[ref.v][ref.port] = out[p]
			}
		}
		for v := 0; v < n; v++ {
			if inst.done[v] {
				out := inst.out[v]
				for p := range out {
					out[p] = nil
				}
			}
		}
		stats.Rounds++
	}
	return stats, nil
}

// materializeLine returns the line topology t as a vertex topology: its
// line graph, with t's labels, or t's computed identifiers as labels when
// it has none.
func materializeLine(t *sim.Topology) *sim.Topology {
	labels := t.Labels
	if labels == nil {
		labels = make([]int64, t.N())
		for e := range labels {
			labels[e] = t.ID(e)
		}
	}
	return &sim.Topology{G: graph.LineGraph(t.G), Labels: labels}
}

// --- test programs ---------------------------------------------------------

func planeRandomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// sizedMsg exercises the Sizer accounting path of Stats.
type sizedMsg int64

func (s sizedMsg) Bits() int64 { return int64(s)%13 + 14 }

// sumProgram broadcasts the vertex ID, then stores the neighbor-ID sum.
func sumProgram(t *sim.Topology, results []int64) sim.PortProgram {
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		if round == 0 {
			out.SendAll(t.ID(v))
			return t.G.Degree(v) == 0
		}
		var sum int64
		for _, m := range in {
			sum += m.Msg.(int64)
		}
		results[v] = sum
		return true
	})
}

// floodProgram floods a token from ID 0; results record first-hearing
// rounds. On disconnected graphs it never terminates, which the matrix
// exercises through the round-limit path.
func floodProgram(t *sim.Topology, results []int64) sim.PortProgram {
	reached := make([]bool, t.G.N())
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		if round == 0 {
			reached[v] = t.ID(v) == 0
		}
		if reached[v] {
			out.SendAll(int64(1))
			results[v] = int64(round)
			return true
		}
		reached[v] = len(in) > 0
		return false
	})
}

// foldMail folds an inbox into acc, port and payload alike, so a message
// on the wrong port, out of port order, missing or extra changes it.
func foldMail(acc int64, in []sim.Mail) int64 {
	acc = acc*31 + int64(len(in))
	for _, m := range in {
		switch msg := m.Msg.(type) {
		case int64:
			acc = acc*31 + msg + int64(m.Port)
		case sizedMsg:
			acc = acc*31 + int64(msg) - int64(m.Port)
		default:
			panic(fmt.Sprintf("unexpected payload %T on port %d", m.Msg, m.Port))
		}
	}
	return acc
}

// chattyProgram staggers halting by ID, sends on a rotating subset of
// ports (mixing silent ports with plain and Sizer payloads), and folds
// everything received into a per-vertex accumulator. It exercises
// final-message delivery, unicasts to halted receivers, and bit
// accounting.
func chattyProgram(t *sim.Topology, results []int64) sim.PortProgram {
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		id := t.ID(v)
		results[v] = foldMail(results[v], in)
		for p := 0; p < t.G.Degree(v); p++ {
			switch (p + round + int(id)) % 3 {
			case 0:
				out.Send(p, int64(round)*1000+id)
			case 1:
				out.Send(p, sizedMsg(id+int64(p)))
			}
		}
		return round >= int(id%5)
	})
}

// mixedProgram mixes both kinds of sends in one round across vertices:
// in each round a vertex broadcasts a plain or a Sizer payload, sends to
// a subset of its ports (in descending port order), or stays silent, by
// (round + ID) mod 4, and vertices halt in staggered waves (vertex v runs
// 2 + ID mod 7 rounds). So receivers merge broadcasts with unicasts, the
// broadcast slabs hold final and stale messages of halted vertices, and
// unicasts from several senders meet in one inbox.
func mixedProgram(t *sim.Topology, results []int64) sim.PortProgram {
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		id := t.ID(v)
		results[v] = foldMail(results[v], in)
		switch (round + int(id)) % 4 {
		case 0:
			out.SendAll(int64(round)*1000 + id)
		case 1:
			out.SendAll(sizedMsg(id + int64(round)))
		case 2:
			for p := t.G.Degree(v) - 1; p >= 0; p-- {
				if (p+round)%3 != 2 {
					out.Send(p, sizedMsg(id*7+int64(p)))
				}
			}
		}
		return round >= 1+int(id%7)
	})
}

// --- the equivalence matrix ------------------------------------------------

func TestDataPlaneEquivalenceMatrix(t *testing.T) {
	twoCliques := func() *graph.Graph {
		b := graph.NewBuilder(16)
		for u := 0; u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				b.AddEdge(u, v)
				b.AddEdge(u+8, v+8)
			}
		}
		return b.MustBuild()
	}
	// gnp-sharded has two shards' worth of vertices, so the parallel
	// engine steps it on several shards wherever there are CPUs for them,
	// and the unicast records of several shards meet in one sort.
	graphs := []struct {
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
		{"two-cliques", twoCliques()},
		{"isolated", graph.NewBuilder(12).MustBuild()},
		{"single", graph.NewBuilder(1).MustBuild()},
		{"empty", graph.NewBuilder(0).MustBuild()},
	}
	programs := []struct {
		name string
		prog func(*sim.Topology, []int64) sim.PortProgram
	}{
		{"sum", sumProgram},
		{"flood", floodProgram},
		{"chatty", chattyProgram},
		{"mixed", mixedProgram},
	}
	engines := []struct {
		name string
		eng  sim.Engine
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
		{"parallel", sim.Parallel},
	}
	const maxRounds = 64
	for _, gc := range graphs {
		for _, pc := range programs {
			t.Run(gc.name+"/"+pc.name, func(t *testing.T) {
				topo := sim.NewTopology(gc.g)
				wantRes := make([]int64, gc.g.N())
				wantStats, wantErr := runReference(topo, pc.prog(topo, wantRes), maxRounds)
				for _, ec := range engines {
					gotRes := make([]int64, gc.g.N())
					gotStats, gotErr := ec.eng.Run(context.Background(), topo, pc.prog(topo, gotRes), maxRounds)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: error mismatch: reference %v, got %v", ec.name, wantErr, gotErr)
					}
					if gotStats != wantStats {
						t.Fatalf("%s: stats %+v, reference %+v", ec.name, gotStats, wantStats)
					}
					for v := range wantRes {
						if gotRes[v] != wantRes[v] {
							t.Fatalf("%s: vertex %d result %d, reference %d", ec.name, v, gotRes[v], wantRes[v])
						}
					}
				}
			})
		}
	}
}

// TestAlgorithmEquivalenceMatrix runs real colorings from the seed
// workloads under every engine — including the pre-CSR reference plane
// (refExec, words_test.go), which steps the programs one vertex at a time
// over the unoptimized per-vertex-slice path: colorings and Stats must be
// identical bit-for-bit (DESIGN.md §4, §8). Every program of the
// algorithm packages has a row on a 512-vertex graph, two shards' worth
// for the parallel engine: the word programs, and the merge's port
// program.
func TestAlgorithmEquivalenceMatrix(t *testing.T) {
	engines := []struct {
		name string
		eng  sim.Exec
	}{
		{"sequential", sim.Sequential},
		{"reverse", sim.ReverseSequential},
		{"parallel", sim.Parallel},
		{"reference", refExec{}},
	}
	g, err := gen.NearRegular(512, 12, 2017)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("linial", func(t *testing.T) {
		var want *linial.Result
		for _, ec := range engines {
			got, err := linial.Reduce(context.Background(), ec.eng, sim.NewTopology(g), int64(g.N()))
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if err := verify.VertexColoring(g, got.Colors, got.Palette); err != nil {
				t.Fatalf("%s: improper: %v", ec.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats || got.Palette != want.Palette {
				t.Fatalf("%s: stats/palette diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for v := range want.Colors {
				if got.Colors[v] != want.Colors[v] {
					t.Fatalf("%s: color of %d differs", ec.name, v)
				}
			}
		}
	})
	// Kuhn–Wattenhofer from the Linial palette, on g and on g's line
	// topology. A palette above 4·target takes at least three phases, so
	// words cross phases whose numberings differ from the starting one.
	kwRow := func(t *testing.T, topo *sim.Topology, m0 int64, proper func([]int64, int64) error) {
		lin, err := linial.Reduce(context.Background(), sim.Sequential, topo, m0)
		if err != nil {
			t.Fatal(err)
		}
		seeded := *topo
		seeded.Labels = lin.Colors
		target := int64(topo.MaxDegree()) + 1
		if lin.Palette <= 4*target {
			t.Fatalf("Linial palette %d ≤ 4·%d: fewer than three KW phases", lin.Palette, target)
		}
		var want *reduce.Result
		for _, ec := range engines {
			got, err := reduce.KuhnWattenhofer(context.Background(), ec.eng, &seeded, lin.Palette, target)
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if err := proper(got.Colors, got.Palette); err != nil {
				t.Fatalf("%s: improper: %v", ec.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s: stats diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for v := range want.Colors {
				if got.Colors[v] != want.Colors[v] {
					t.Fatalf("%s: color of %d differs", ec.name, v)
				}
			}
		}
	}
	t.Run("reduce-kw", func(t *testing.T) {
		kwRow(t, sim.NewTopology(g), int64(g.N()), func(colors []int64, palette int64) error {
			return verify.VertexColoring(g, colors, palette)
		})
	})
	t.Run("reduce-kw-line", func(t *testing.T) {
		topo, err := vc.LineTopology(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		kwRow(t, topo, vc.EdgeIDBound(g), func(colors []int64, palette int64) error {
			return verify.EdgeColoring(g, colors, palette)
		})
	})
	t.Run("reduce-trim", func(t *testing.T) {
		lin, err := linial.Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), int64(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		// A short trim: the Linial palette plus 40 empty classes above it.
		topo := &sim.Topology{G: g, Labels: lin.Colors}
		target := lin.Palette - 60
		var want *reduce.Result
		for _, ec := range engines {
			got, err := reduce.TrimClasses(context.Background(), ec.eng, topo, lin.Palette+40, target)
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if err := verify.VertexColoring(g, got.Colors, got.Palette); err != nil {
				t.Fatalf("%s: improper: %v", ec.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s: stats diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for v := range want.Colors {
				if got.Colors[v] != want.Colors[v] {
					t.Fatalf("%s: color of %d differs", ec.name, v)
				}
			}
		}
	})
	t.Run("hpartition", func(t *testing.T) {
		// A tight threshold peels this graph over several phases, so a
		// step that reads another vertex's slot mid-round diverges
		// between step orders.
		hg, err := gen.PreferentialAttachment(512, 3, 2017)
		if err != nil {
			t.Fatal(err)
		}
		var want *arbor.HPartitionResult
		for _, ec := range engines {
			got, err := arbor.HPartition(context.Background(), ec.eng, hg, 5)
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats || got.NumParts != want.NumParts {
				t.Fatalf("%s: stats/parts diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for v := range want.Part {
				if got.Part[v] != want.Part[v] {
					t.Fatalf("%s: part of %d differs", ec.name, v)
				}
			}
		}
	})
	t.Run("merge", func(t *testing.T) {
		// Theorem 5.2 on a bounded-arboricity graph: the peeling, the
		// internal edges, and a Lemma 5.1 merge per part below the top,
		// the port program whose offers and replies point into its slabs.
		mg, err := gen.ForestUnionHub(512, 2, 200, 2017)
		if err != nil {
			t.Fatal(err)
		}
		var want *arbor.Result
		for _, ec := range engines {
			got, err := arbor.ColorHPartition(context.Background(), mg, 3, arbor.Options{Exec: ec.eng, VC: vc.Options{Exec: ec.eng}, Q: 2.05})
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if err := verify.EdgeColoring(mg, got.Colors, got.Palette); err != nil {
				t.Fatalf("%s: improper: %v", ec.name, err)
			}
			if got.Parts < 3 {
				t.Fatalf("%s: %d parts, want at least two merge stages", ec.name, got.Parts)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats || got.Palette != want.Palette {
				t.Fatalf("%s: stats/palette diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for e := range want.Colors {
				if got.Colors[e] != want.Colors[e] {
					t.Fatalf("%s: color of edge %d differs", ec.name, e)
				}
			}
		}
	})
	t.Run("star", func(t *testing.T) {
		sg, err := gen.NearRegular(128, 16, 2017)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := star.ChooseT(sg.MaxDegree(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var want *star.Result
		for _, ec := range engines {
			opt := star.Options{Exec: ec.eng, VC: vc.Options{Exec: ec.eng}}
			got, err := star.EdgeColor(context.Background(), sg, tt, 1, opt)
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if err := verify.EdgeColoring(sg, got.Colors, got.Palette); err != nil {
				t.Fatalf("%s: improper: %v", ec.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats || got.Palette != want.Palette {
				t.Fatalf("%s: stats/palette diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for e := range want.Colors {
				if got.Colors[e] != want.Colors[e] {
					t.Fatalf("%s: color of edge %d differs", ec.name, e)
				}
			}
		}
	})
	t.Run("cd", func(t *testing.T) {
		h, err := gen.UniformHypergraph(120, 3, 360, 2017)
		if err != nil {
			t.Fatal(err)
		}
		lg, cov, err := cliques.HypergraphLineCover(h)
		if err != nil {
			t.Fatal(err)
		}
		tt := cd.ChooseT(cov.MaxCliqueSize(), 1)
		var want *cd.Result
		for _, ec := range engines {
			opt := cd.Options{Exec: ec.eng, VC: vc.Options{Exec: ec.eng}}
			got, err := cd.Color(context.Background(), lg, cov, tt, 1, opt)
			if err != nil {
				t.Fatalf("%s: %v", ec.name, err)
			}
			if err := verify.VertexColoring(lg, got.Colors, got.Palette); err != nil {
				t.Fatalf("%s: improper: %v", ec.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Stats != want.Stats || got.Palette != want.Palette {
				t.Fatalf("%s: stats/palette diverge: %+v vs %+v", ec.name, got.Stats, want.Stats)
			}
			for v := range want.Colors {
				if got.Colors[v] != want.Colors[v] {
					t.Fatalf("%s: color of %d differs", ec.name, v)
				}
			}
		}
	})
}

// --- allocation regression -------------------------------------------------

// exchangeProgram is the steady-state workload for allocation pinning: every
// vertex keeps exchanging small int64 payloads (which the Go runtime
// converts to interfaces without allocating) for a fixed number of rounds,
// folding its inbox into acc[v].
func exchangeProgram(t *sim.Topology, rounds int) sim.PortProgram {
	acc := make([]int64, t.G.N())
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		for _, m := range in {
			acc[v] += m.Msg.(int64)
		}
		out.SendAll(int64(round & 0x7f))
		return round >= rounds-1
	})
}

// shortLongAllocs measures the allocations of an 8-round and a 72-round
// run of the same program; the steady-state pins demand they be equal. A
// GC cycle runs first: a process's first cycle starts the runtime's
// background mark workers, whose goroutines are heap allocations that
// would otherwise land in whichever run that cycle happens to hit.
func shortLongAllocs(run func(rounds int)) (short, long float64) {
	runtime.GC()
	short = testing.AllocsPerRun(5, func() { run(8) })
	long = testing.AllocsPerRun(5, func() { run(72) })
	return short, long
}

// TestSequentialSteadyStateAllocFree pins the tentpole contract: after
// instance setup, the sequential engine's round loop performs zero heap
// allocations. Measured by differencing whole runs of different lengths,
// which cancels the one-time setup cost exactly.
func TestSequentialSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(5, 400, 0.04)
	topo := sim.NewTopology(g)
	run := func(rounds int) {
		if _, err := sim.Sequential.Run(context.Background(), topo, exchangeProgram(topo, rounds), rounds+2); err != nil {
			t.Fatal(err)
		}
	}
	short, long := shortLongAllocs(run)
	if long != short {
		t.Fatalf("sequential engine allocates per round: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
			long-short, long, short)
	}
}

// TestReverseSequentialSteadyStateAllocFree pins the same contract for the
// reverse engine (the same round loop over a reversed shard).
func TestReverseSequentialSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(6, 400, 0.04)
	topo := sim.NewTopology(g)
	run := func(rounds int) {
		if _, err := sim.ReverseSequential.Run(context.Background(), topo, exchangeProgram(topo, rounds), rounds+2); err != nil {
			t.Fatal(err)
		}
	}
	short, long := shortLongAllocs(run)
	if long != short {
		t.Fatalf("reverse engine allocates per round: %.1f allocs over 64 extra rounds", long-short)
	}
}

// unicastProgram is exchangeProgram with every message sent port by
// port: each vertex sends on its ports of one parity per round, so every
// round delivers through the unicast records and none gathers a
// broadcast.
func unicastProgram(t *sim.Topology, rounds int) sim.PortProgram {
	acc := make([]int64, t.G.N())
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		for _, m := range in {
			acc[v] += m.Msg.(int64) + int64(m.Port)
		}
		for p := round & 1; p < t.G.Degree(v); p += 2 {
			out.Send(p, int64(round&0x7f))
		}
		return round >= rounds-1
	})
}

// TestPortPlaneUnicastSteadyStateAllocFree pins the unicast path — the
// shards' records, the counting sort and the mail buffer — at zero heap
// allocations per round on both sequential engines: the buffers grow in
// the first rounds and are reused after.
func TestPortPlaneUnicastSteadyStateAllocFree(t *testing.T) {
	g := planeRandomGraph(10, 400, 0.04)
	topo := sim.NewTopology(g)
	for _, eng := range []sim.Engine{sim.Sequential, sim.ReverseSequential} {
		run := func(rounds int) {
			if _, err := eng.Run(context.Background(), topo, unicastProgram(topo, rounds), rounds+2); err != nil {
				t.Fatal(err)
			}
		}
		short, long := shortLongAllocs(run)
		if long != short {
			t.Fatalf("engine %d: unicast rounds allocate: %.1f allocs over 64 extra rounds (%.1f vs %.1f)",
				eng, long-short, long, short)
		}
	}
}

// TestPortProgramAllocsIndependentOfN pins "no per-vertex objects" on the
// any plane: a whole run of the exchange program, its construction
// included, allocates the same number of heap objects on 1k and on 8k
// vertices.
func TestPortProgramAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		g := benchGraph(t, n, 8, 2017)
		topo := sim.NewTopology(g)
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			if _, err := sim.Sequential.Run(context.Background(), topo, exchangeProgram(topo, 8), 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("a port-program run allocates %.1f objects on 1k vertices and %.1f on 8k: some allocation is per vertex", small, large)
	}
}

// --- benchmarks ------------------------------------------------------------

// benchGraph builds a 10k-vertex random graph with ~deg·n/2 edges without
// the O(n²) coin-flip loop.
func benchGraph(tb testing.TB, n, deg int, seed int64) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool, n*deg/2)
	for len(seen) < n*deg/2 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

const benchRounds = 32

// wavefrontProgram is the canonical 10k-vertex plane workload: vertices
// halt in staggered waves (vertex v runs 1 + ID mod span rounds), which is
// the termination pattern of this repository's algorithms — Linial's
// schedule, the §5 peeling, and the class-by-class trims all retire
// vertices progressively, so most rounds execute over a mix of live and
// halted vertices.
func wavefrontProgram(t *sim.Topology, span int) sim.PortProgram {
	acc := make([]int64, t.G.N())
	return sim.PortFunc(func(v, round int, in []sim.Mail, out *sim.Outbox) bool {
		for _, m := range in {
			acc[v] += m.Msg.(int64)
		}
		out.SendAll(int64(round & 0x7f))
		return round >= int(t.ID(v))%span
	})
}

// BenchmarkSimPlane is the 10k-vertex message-plane workload guarded by
// BENCH_simcore.json: one op is a full execution (at most 32 rounds) of
// the wavefront (staggered halting) or exchange (all vertices live
// throughout) program. The reference sub-benchmarks run the identical
// workloads on the old data plane, so the CSR speedup is measurable
// in-repo:
//
//	go test ./internal/sim -bench BenchmarkSimPlane -benchmem
func BenchmarkSimPlane(b *testing.B) {
	g := benchGraph(b, 10_000, 16, 2017)
	topo := sim.NewTopology(g)
	workloads := []struct {
		name string
		prog func() sim.Factory
	}{
		{"wavefront", func() sim.Factory { return wavefrontProgram(topo, benchRounds) }},
		{"exchange", func() sim.Factory { return exchangeProgram(topo, benchRounds) }},
	}
	for _, wl := range workloads {
		b.Run(wl.name+"/sequential/10k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Sequential.Run(context.Background(), topo, wl.prog(), benchRounds+2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.name+"/parallel/10k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Parallel.Run(context.Background(), topo, wl.prog(), benchRounds+2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.name+"/reference/10k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runReference(topo, wl.prog(), benchRounds+2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimLinial measures a real algorithm (the O(log* n) Linial
// substrate) end-to-end on the 10k workload, old plane vs new.
func BenchmarkSimLinial(b *testing.B) {
	g, err := gen.NearRegular(10_000, 8, 2017)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential/10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linial.Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), int64(g.N())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel/10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linial.Reduce(context.Background(), sim.Parallel, sim.NewTopology(g), int64(g.N())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
