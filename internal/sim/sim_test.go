package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func rg(seed int64, n int, p float64) *graph.Graph {
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

// PortFunc adapts a step function to PortProgram for the test programs,
// which keep their per-vertex state in slices indexed by v and ask for no
// scratch. It is exported for the external test package.
type PortFunc func(v, round int, in []Mail, out *Outbox) bool

// Scratch implements Factory.
func (PortFunc) Scratch(int) int { return 0 }

// Step implements PortProgram.
func (f PortFunc) Step(v, round int, in []Mail, out *Outbox, _ []Word) bool {
	return f(v, round, in, out)
}

// DetachedOutbox is an Outbox outside any run, for the reference executor
// of plane_test.go: it steps one vertex of a port program and hands back
// what the vertex sent, port by port, leaving delivery to the caller. It
// is exported for the external test package.
type DetachedOutbox struct{ o Outbox }

// Step steps vertex v of g under p with inbox in and writes what v sent
// into out, one slot per port of v (nil: nothing). It panics when v sent
// two messages on one port.
func (d *DetachedOutbox) Step(p PortProgram, g *graph.Graph, v, round int, in []Mail, scratch []Word, out []Message) bool {
	lo, _ := g.Range(v)
	d.o.recs = d.o.recs[:0]
	d.o.begin(g.Adj(v), lo)
	halted := p.Step(v, round, in, &d.o, scratch)
	for port := range out {
		out[port] = d.o.all
	}
	for _, r := range d.o.recs {
		port := int(r.arc) - lo
		if out[port] != nil {
			panic(fmt.Sprintf("vertex %d sent twice on port %d in round %d", v, port, round))
		}
		out[port] = r.msg
	}
	return halted
}

// neighborSumProgram: every vertex broadcasts its ID in round 0, sums the
// received IDs in round 1, stores the result, and halts.
func neighborSumProgram(t *Topology, results []int64) PortFunc {
	return func(v, round int, in []Mail, out *Outbox) bool {
		switch round {
		case 0:
			out.SendAll(t.ID(v))
			return t.G.Degree(v) == 0 // isolated vertices are done immediately
		default:
			var sum int64
			for _, m := range in {
				sum += m.Msg.(int64)
			}
			results[v] = sum
			return true
		}
	}
}

func TestNeighborSum(t *testing.T) {
	g := rg(1, 40, 0.2)
	results := make([]int64, g.N())
	topo := NewTopology(g)
	stats, err := Sequential.Run(context.Background(), topo, neighborSumProgram(topo, results), 10)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		var want int64
		for _, a := range g.Adj(v) {
			want += int64(a.To)
		}
		if g.Degree(v) > 0 && results[v] != want {
			t.Fatalf("vertex %d sum = %d, want %d", v, results[v], want)
		}
	}
	if stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", stats.Rounds)
	}
	if stats.Messages != 2*int64(g.M()) {
		t.Fatalf("messages = %d, want %d", stats.Messages, 2*g.M())
	}
}

// bfsProgram floods a token from the vertex with identifier 0; every vertex
// records the round it first hears the token (its BFS distance), relays
// it in that round and halts.
func bfsProgram(t *Topology, dist []int) PortFunc {
	reached := make([]bool, t.G.N())
	return func(v, round int, in []Mail, out *Outbox) bool {
		if round == 0 && t.ID(v) == 0 {
			reached[v] = true
			dist[v] = 0
		}
		if !reached[v] && len(in) > 0 {
			reached[v] = true
			dist[v] = round
		}
		if reached[v] {
			out.SendAll(int64(1))
			return true
		}
		return false
	}
}

func TestBFSDistances(t *testing.T) {
	g := rg(7, 60, 0.08)
	// Compute reference distances from vertex 0 by BFS.
	want := make([]int, g.N())
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.Adj(v) {
			if want[a.To] == -1 {
				want[a.To] = want[v] + 1
				queue = append(queue, int(a.To))
			}
		}
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	topo := NewTopology(g)
	// Unreachable vertices never halt; bound rounds and expect the error if
	// the graph is disconnected.
	_, err := Sequential.Run(context.Background(), topo, bfsProgram(topo, dist), g.N()+2)
	disconnected := false
	for _, d := range want {
		if d == -1 {
			disconnected = true
		}
	}
	if disconnected {
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("expected round-limit error on disconnected graph, got %v", err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if want[v] != -1 && dist[v] != want[v] {
			t.Fatalf("vertex %d distance %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestEnginesProduceIdenticalExecutions(t *testing.T) {
	g := rg(3, 200, 0.05)
	r1 := make([]int64, g.N())
	r2 := make([]int64, g.N())
	topo := NewTopology(g)
	s1, err := Sequential.Run(context.Background(), topo, neighborSumProgram(topo, r1), 10)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parallel.Run(context.Background(), topo, neighborSumProgram(topo, r2), 10)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	for v := range r1 {
		if r1[v] != r2[v] {
			t.Fatalf("vertex %d differs: %d vs %d", v, r1[v], r2[v])
		}
	}
}

func TestEngineDispatch(t *testing.T) {
	g := graph.Path(4)
	res := make([]int64, 4)
	topo := NewTopology(g)
	for _, e := range []Engine{Sequential, Parallel} {
		if _, err := e.Run(context.Background(), topo, neighborSumProgram(topo, res), 10); err != nil {
			t.Fatal(err)
		}
	}
}

// oddForeverProgram: every vertex broadcasts each round; even vertices
// halt after round 1, odd ones never halt.
var oddForeverProgram PortFunc = func(v, round int, in []Mail, out *Outbox) bool {
	out.SendAll(int64(round))
	return v%2 == 0 && round >= 1
}

// engines lists every engine; the first is the reference the others must
// match.
var engines = []Engine{Sequential, ReverseSequential, Parallel}

// TestRoundLimitError: a run that outlives its budget fails with
// ErrRoundLimit on every engine, returning the same partial Stats, also on
// a graph large enough (2·stepGrain vertices) for the parallel engine to
// shard.
func TestRoundLimitError(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(3), rg(11, 2*stepGrain, 0.01)} {
		var want Stats
		for i, e := range engines {
			stats, err := e.Run(context.Background(), NewTopology(g), oddForeverProgram, 5)
			if !errors.Is(err, ErrRoundLimit) {
				t.Fatalf("n=%d engine %d: want ErrRoundLimit, got %v", g.N(), e, err)
			}
			if stats.Rounds != 5 || stats.Messages == 0 {
				t.Fatalf("n=%d engine %d: partial stats %+v, want 5 talkative rounds", g.N(), e, stats)
			}
			if i == 0 {
				want = stats
			} else if stats != want {
				t.Fatalf("n=%d engine %d: partial stats %+v, want %+v", g.N(), e, stats, want)
			}
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	g := graph.Path(3)
	topo := &Topology{G: g, Labels: []int64{1}}
	if err := topo.Validate(); err == nil {
		t.Fatal("expected label length error")
	}
	if _, err := Sequential.Run(context.Background(), topo, neighborSumProgram(topo, make([]int64, 3)), 4); err == nil {
		t.Fatal("run accepted a label slab of the wrong length")
	}
	topo = &Topology{G: g, Labels: []int64{0, 1, 0}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.ID(1) != 1 || topo.Label(2) != 0 {
		t.Fatal("accessors wrong")
	}
	plain := NewTopology(g)
	if plain.ID(2) != 2 || plain.Label(0) != -1 {
		t.Fatal("default accessors wrong")
	}
}

// lineTopology returns g's line topology with seed labels.
func lineTopology(t testing.TB, g *graph.Graph, labels []int64) *Topology {
	t.Helper()
	line, err := graph.NewLineTable(g)
	if err != nil {
		t.Fatal(err)
	}
	return &Topology{G: g, Line: line, Labels: labels}
}

// TestLineTopologyValidation pins a line topology's shape and its
// refusals: its vertices are g's edges, with computed identifiers and L's
// degrees; a table of another graph and a label per vertex of g are
// errors.
func TestLineTopologyValidation(t *testing.T) {
	g := graph.Star(4) // L is a triangle on the edges {0,1}, {0,2}, {0,3}
	topo := lineTopology(t, g, nil)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.N() != 3 || topo.MaxDegree() != 2 || topo.Degree(1) != 2 {
		t.Fatalf("line topology n=%d Δ=%d deg(1)=%d, want 3, 2, 2", topo.N(), topo.MaxDegree(), topo.Degree(1))
	}
	if topo.ID(2) != 0*4+3 || topo.Label(0) != -1 {
		t.Fatalf("line accessors: ID(2)=%d Label(0)=%d, want 3 and -1", topo.ID(2), topo.Label(0))
	}
	if err := lineTopology(t, g, []int64{0, 1, 2}).Validate(); err != nil {
		t.Fatalf("one label per edge rejected: %v", err)
	}
	bad := map[string]*Topology{
		"other-table":  {G: graph.Path(5), Line: topo.Line},
		"vertex-label": lineTopology(t, g, []int64{0, 1, 2, 3}),
	}
	for name, bt := range bad {
		if err := bt.Validate(); err == nil {
			t.Errorf("%s: line topology accepted", name)
		}
	}
}

// TestLineTopologyRefusesPortPrograms: port addressing is over G's arcs,
// which a line topology's rows are not, so every engine refuses a port
// program on one with an error, before round 0.
func TestLineTopologyRefusesPortPrograms(t *testing.T) {
	topo := lineTopology(t, graph.Cycle(6), nil)
	for _, e := range engines {
		ran := false
		var f PortFunc = func(v, round int, in []Mail, out *Outbox) bool {
			ran = true
			return true
		}
		if _, err := e.Run(context.Background(), topo, f, 4); err == nil || ran {
			t.Fatalf("engine %v ran a port program on a line topology (err %v, stepped %v)", e, err, ran)
		}
	}
}

// knowledgeProgram exchanges identifiers and seed labels in round 0 and
// records, in each vertex's arc range, what arrived on each port. It
// also records how many ports delivered and the scratch length each step
// was handed, and the Δ the engine sized the scratch from.
type knowledgeProgram struct {
	t               *Topology
	nbrID, nbrLabel []int64
	degree, scratch []int
	maxDeg          int
}

func (p *knowledgeProgram) Scratch(maxDeg int) int {
	p.maxDeg = maxDeg
	return maxDeg + 1
}

func (p *knowledgeProgram) Step(v, round int, in []Mail, out *Outbox, scratch []Word) bool {
	if round == 0 {
		p.scratch[v] = len(scratch)
		out.SendAll([2]int64{p.t.ID(v), p.t.Label(v)})
		return false
	}
	p.degree[v] = len(in)
	lo, _ := p.t.G.Range(v)
	for _, m := range in {
		idl := m.Msg.([2]int64)
		p.nbrID[lo+int(m.Port)], p.nbrLabel[lo+int(m.Port)] = idl[0], idl[1]
	}
	return true
}

// TestNeighborKnowledge pins the knowledge model: stepping v, a program
// is handed a scratch slab sized from Δ, and it learns its neighbors'
// identifiers and seed labels, port by port, from a round-0 exchange in
// which every port delivers.
func TestNeighborKnowledge(t *testing.T) {
	g := graph.Star(5)
	labels := []int64{7, 8, 9, 10, 11}
	topo := &Topology{G: g, Labels: labels}
	arcs := g.NumArcs()
	for _, e := range engines {
		p := &knowledgeProgram{t: topo,
			nbrID: make([]int64, arcs), nbrLabel: make([]int64, arcs),
			degree: make([]int, g.N()), scratch: make([]int, g.N())}
		if _, err := e.Run(context.Background(), topo, p, 5); err != nil {
			t.Fatal(err)
		}
		if p.maxDeg != 4 {
			t.Fatalf("engine %v: scratch sized from Δ=%d, want 4", e, p.maxDeg)
		}
		for v := 0; v < g.N(); v++ {
			if p.degree[v] != g.Degree(v) || p.scratch[v] != 5 {
				t.Fatalf("engine %v: vertex %d stepped with degree %d and %d scratch words, want %d and 5",
					e, v, p.degree[v], p.scratch[v], g.Degree(v))
			}
			lo, _ := g.Range(v)
			for port, a := range g.Adj(v) {
				if p.nbrID[lo+port] != int64(a.To) || p.nbrLabel[lo+port] != labels[a.To] {
					t.Fatalf("engine %v: vertex %d port %d learned %d/%d, want %d/%d", e, v, port,
						p.nbrID[lo+port], p.nbrLabel[lo+port], a.To, labels[a.To])
				}
			}
		}
		if leaf, _ := g.Range(3); p.nbrID[leaf] != 0 || p.nbrLabel[leaf] != 7 {
			t.Fatalf("engine %v: leaf knowledge wrong: %d/%d", e, p.nbrID[leaf], p.nbrLabel[leaf])
		}
	}
}

func TestStatsCombinators(t *testing.T) {
	a := Stats{Rounds: 5, Messages: 100}
	b := Stats{Rounds: 3, Messages: 50}
	if s := a.Seq(b); s.Rounds != 8 || s.Messages != 150 {
		t.Fatalf("Seq wrong: %+v", s)
	}
	if s := a.Par(b); s.Rounds != 5 || s.Messages != 150 {
		t.Fatalf("Par wrong: %+v", s)
	}
	if s := ParAll([]Stats{a, b, {Rounds: 9, Messages: 1}}); s.Rounds != 9 || s.Messages != 151 {
		t.Fatalf("ParAll wrong: %+v", s)
	}
	if s := ParAll(nil); s.Rounds != 0 || s.Messages != 0 {
		t.Fatalf("empty ParAll wrong: %+v", s)
	}
}

func TestHaltedVertexStopsSending(t *testing.T) {
	// Vertex with ID 0 halts immediately after sending once; its neighbor
	// must see the message in round 1 but nothing in round 2.
	g := graph.Path(2)
	var sawRound1, sawRound2 bool
	var f PortFunc = func(v, round int, in []Mail, out *Outbox) bool {
		if v == 0 {
			out.SendAll(int64(42))
			return true
		}
		switch round {
		case 1:
			sawRound1 = len(in) > 0
			return false
		case 2:
			sawRound2 = len(in) > 0
			return true
		}
		return false
	}
	if _, err := Sequential.Run(context.Background(), NewTopology(g), f, 10); err != nil {
		t.Fatal(err)
	}
	if !sawRound1 {
		t.Fatal("final message of halting vertex was not delivered")
	}
	if sawRound2 {
		t.Fatal("halted vertex message redelivered")
	}
}

// TestContextAbortsRun: engines check the context at every round boundary
// and abort with an error wrapping the cancellation cause.
func TestContextAbortsRun(t *testing.T) {
	g := rg(7, 40, 0.2)
	var forever PortFunc = func(v, round int, in []Mail, out *Outbox) bool { return false }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range engines {
		stats, err := e.Run(ctx, NewTopology(g), forever, 1000)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: want context.Canceled, got %v", e, err)
		}
		if stats.Rounds != 0 {
			t.Fatalf("engine %v ran %d rounds under a canceled context", e, stats.Rounds)
		}
	}

	// Mid-run: a hook cancels after round 3, so every engine executes
	// rounds 0–3, aborts at the next boundary, and returns the same
	// partial Stats.
	big := rg(13, 2*stepGrain, 0.01)
	var want Stats
	for i, e := range engines {
		ctx, cancel := context.WithCancel(context.Background())
		hook := func(ev RoundEvent) {
			if ev.Round == 3 {
				cancel()
			}
		}
		stats, err := Instrumented(e, hook, nil).Run(ctx, NewTopology(big), oddForeverProgram, 1000)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v mid-run: want context.Canceled, got %v", e, err)
		}
		if stats.Rounds != 4 {
			t.Fatalf("engine %v mid-run: %d rounds, want 4", e, stats.Rounds)
		}
		if i == 0 {
			want = stats
		} else if stats != want {
			t.Fatalf("engine %v mid-run: partial stats %+v, want %+v", e, stats, want)
		}
	}
}

// scratchOnly implements Factory but is neither a PortProgram nor a
// WordProgram.
type scratchOnly struct{}

func (scratchOnly) Scratch(int) int { return 0 }

func TestRunRejectsUnknownProgram(t *testing.T) {
	for _, e := range engines {
		if _, err := e.Run(context.Background(), NewTopology(graph.Path(3)), scratchOnly{}, 4); err == nil {
			t.Fatalf("engine %v ran a program of neither form", e)
		}
	}
}

// TestRecordListSizedBySurvivors: a shard's first record list is sized at
// the round it is first used, by the running vertices when fewer run than
// the shard holds. On 10k vertices of which ten outlive round 0 and each
// sends one unicast in round 1, no shard's list holds more than ten
// records, where one per vertex of the shard would be 10k.
func TestRecordListSizedBySurvivors(t *testing.T) {
	const n, every = 10_000, 1000
	g := graph.Cycle(n)
	for _, eng := range []Engine{Sequential, Parallel, ReverseSequential} {
		capAt := make([]int, n) // the list's capacity after v's send
		var f PortFunc = func(v, round int, in []Mail, out *Outbox) bool {
			switch {
			case round == 0:
				return v%every != 0
			case round == 1:
				out.Send(0, int64(v))
				capAt[v] = cap(out.recs)
				return false
			default:
				return true
			}
		}
		stats, err := eng.Run(context.Background(), NewTopology(g), f, 5)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages != n/every {
			t.Fatalf("engine %d: %d messages, want %d", eng, stats.Messages, n/every)
		}
		if most := slices.Max(capAt); most > n/every {
			t.Fatalf("engine %d: a shard's record list holds %d records for %d survivors", eng, most, n/every)
		}
	}
}
