// Package sim is the synchronous message-passing runtime (the LOCAL model of
// §1.1 of the paper) on which every algorithm in this repository executes.
//
// A network is a Topology: a graph whose vertices are processors, each
// identified by its index (u·n+v for the edge {u, v} of a line topology). An
// algorithm is a Factory: one program value for the whole run that steps each
// vertex in turn, once per round, and keeps all per-vertex state in slabs it
// owns and indexes by vertex. In each round a vertex reads the messages its
// neighbors sent in the previous round, updates its state, and sends. A
// PortProgram addresses its messages port by port: it reads its inbox as a
// list of (port, message) mail and sends through an Outbox, on one port or on
// all of them. A WordProgram (words.go) broadcasts one Word per round to
// every port. The engine delivers what was sent between rounds. Running time
// is the number of rounds until every vertex has halted, exactly the paper's
// measure.
//
// Knowledge model: a vertex initially knows its own identifier, seed
// label and degree, and the global parameters n and Δ. A program is built
// over its Topology, and stepping v it reads them as t.ID(v), t.Label(v),
// t.Degree(v) (len(in) on the word plane), t.N() and t.MaxDegree(), which
// on a line topology answer for L(G), simulated on G. Everything else,
// its neighbors' identifiers and seed labels included, travels over
// edges: a program that needs them learns them in round 0, as the coloring
// programs of this repository do by broadcasting their starting color
// (identifier or seed label) first. The slot-v rule keeps a
// program to this model: stepping vertex v reads and writes only index v
// of the program's slabs (or v's arc range, for per-port state), so
// everything v learns about its neighbors arrives in its inbox.
//
// Every engine runs one round loop over a shard plan: contiguous vertex
// ranges, each with a step order, its own scratch slab and its own inbox
// window. Sequential steps one shard over all vertices in index order,
// fast and allocation-free in its steady state; ReverseSequential steps it
// in reverse order, to prove the in-round order irrelevant; Parallel steps
// several shards concurrently with one barrier per round. Messages cross
// only between rounds and a step is a pure function of (vertex state,
// inbox), so all engines produce bit-identical executions; tests assert
// this.
//
// Data plane: all engines run over the graph's compressed sparse rows
// (graph.Graph's arc indices), with the message representation picked
// once per run from the Factory's type. Both planes keep what a vertex
// broadcasts in one n-slot slab per round parity, and a receiver gathers
// its neighbors' slots through its adjacency list (in[p] =
// prevOut[Adj(v)[p].To]) into the stepping shard's Δ-sized window. The
// word plane (words.go) stores a Word per vertex and gathers every round;
// on a line topology it gathers over the vertex's row of the line table
// (in[p] = prevOut[row[p]]), and only word programs run there.
// The port plane stores a SendAll's Message per vertex and gathers only
// after a round in which some vertex broadcast; its unicasts are sparse:
// each shard appends one record per Send, and after the barrier one
// stable counting sort by receiver packs them into a single mail buffer,
// so a round costs the running vertices plus the messages sent, not the
// arcs of the running vertices. A word program that implements ActiveSet
// (words.go) names each round's acting vertices, and each shard steps
// only its part of them; idle vertices keep broadcasting their last word,
// and the round's traffic comes from running sums.
// Neither plane builds an object per vertex or a slab per arc, and in
// either representation the round loop performs no heap allocations in its
// steady state — see DESIGN.md §7–§8 and the allocation-regression tests.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Message is an arbitrary payload travelling over one edge for one round.
// nil means "no message".
type Message any

// Factory is the program of one run. Its type picks the run's message
// plane once, before round 0: a PortProgram runs on the port plane, and a
// WordProgram on the word plane (words.go).
type Factory interface {
	// Scratch returns how many Words of scratch each shard of a run on a
	// topology of maximum degree maxDeg hands to the program's steps. The
	// engine calls it once per run.
	Scratch(maxDeg int) int
}

// PortProgram is a run-scoped port-addressed program: one value steps
// every vertex of a run on the port plane.
//
// Step executes one round at vertex v. in lists the messages v's
// neighbors sent it in the previous round, one Mail per port that carried
// one, in ascending port order (empty on round 0). The program sends
// through out: Send on one port, SendAll on every port. scratch is the
// stepping shard's scratch slab, Scratch(Δ) words long and shared by
// every vertex the shard steps, so its contents are undefined on entry.
// in, out and scratch are engine-owned and valid only for the call. Step
// returns whether v halts; a halting vertex's messages of this round are
// still delivered, and a halted vertex is never stepped again, sends
// nothing and receives nothing.
//
// A message may point into a slab the program owns, provided the sender
// leaves the pointed-to value alone until the receiver's step in the next
// round has read it. It may never point into scratch: the shard's next
// vertex reuses it within the same round.
//
// The slot-v rule of WordProgram holds here too: Step(v, …) reads and
// writes only index v, or v's arc range, of the program's state slabs.
type PortProgram interface {
	Factory
	Step(v, round int, in []Mail, out *Outbox, scratch []Word) (halted bool)
}

// Mail is one message of a PortProgram's inbox: Msg arrived on port Port.
type Mail struct {
	Port int32
	Msg  Message
}

// Outbox is where a PortProgram step sends. A port carries at most one
// message per round, and a vertex that calls SendAll sends nothing else
// that round; Send and SendAll panic on a mix of the two. Sending nil sends
// nothing. Every message is accounted when it is sent: Bits() bits for a
// Sizer, 64 for anything else, per port it goes to.
type Outbox struct {
	// adj and lo are the stepped vertex's ports and its first arc index.
	adj []graph.Arc
	lo  int32
	// all is the step's broadcast (nil: none), mark the length of recs
	// when the step began, and sent the step's traffic.
	all  Message
	mark int
	sent sendStats
	// loud records that some vertex of the shard broadcast this round.
	loud bool
	// recs are the shard's unicasts of the round so far, in step order;
	// size is the capacity of their first allocation.
	recs []record
	size int
}

// record is one unicast: msg, sent on the arc with index arc, to the
// vertex to. The arc index names the sender and its port at once, and
// ascends with the sender.
type record struct {
	arc, to int32
	msg     Message
}

// Send sends m on port p.
//
//distcolor:noalloc
func (o *Outbox) Send(p int, m Message) {
	if m == nil {
		return
	}
	if o.all != nil {
		panic("sim: Send after SendAll in one step")
	}
	to := o.adj[p].To
	k := len(o.recs)
	if k == cap(o.recs) {
		o.grow()
	}
	o.recs = o.recs[:k+1]
	o.recs[k] = record{arc: o.lo + int32(p), to: to, msg: m}
	o.sent.add(msgTraffic(m, 1))
}

// SendAll sends m on every port.
//
//distcolor:noalloc
func (o *Outbox) SendAll(m Message) {
	if m == nil {
		return
	}
	if o.all != nil || len(o.recs) > o.mark {
		panic("sim: SendAll with another send in one step")
	}
	o.all = m
	if len(o.adj) > 0 {
		o.loud = true
		o.sent = msgTraffic(m, len(o.adj))
	}
}

// grow makes room for more records: first size, one record per vertex of
// the shard or per running vertex when fewer run (stepShard sets it until
// the list exists), then twice the current capacity.
func (o *Outbox) grow() {
	recs := make([]record, len(o.recs), max(o.size, 2*cap(o.recs), 1))
	copy(recs, o.recs)
	o.recs = recs
}

// begin readies the outbox for a step of the vertex with ports adj and
// first arc lo.
//
//distcolor:noalloc
func (o *Outbox) begin(adj []graph.Arc, lo int) {
	o.adj, o.lo = adj, int32(lo)
	o.all, o.mark, o.sent = nil, len(o.recs), sendStats{}
}

// msgTraffic is the traffic of sending m on ports ports: Bits() bits each
// for a Sizer, 64 for anything else.
//
//distcolor:noalloc
func msgTraffic(m Message, ports int) sendStats {
	b := int64(64)
	if s, ok := m.(Sizer); ok {
		b = s.Bits()
	}
	d := int64(ports)
	return sendStats{msgs: d, bits: d * b, maxBits: b}
}

// Topology is a network: a graph plus optional seed labels. A vertex's
// identifier is its index, distinct as the LOCAL model requires. A line
// topology is the line graph L(G) simulated on G itself: its vertices are
// G's edges, each owned by its endpoints, with the identifier u·n+v of
// edge {u, v}, its neighbors are read from G's line table, and one round
// of L is one round of G, every L-message being a read at the endpoint its
// two edges share. Programs and engines read a topology's shape through N,
// Degree and MaxDegree, which answer for L on a line topology, never
// through G.
type Topology struct {
	G *graph.Graph
	// Line, when set, makes this G's line topology: Line is G's line table
	// (graph.NewLineTable), vertex e is G's edge e and its ports are the
	// entries of row e. Only word programs run on it.
	Line *graph.LineTable
	// Labels are optional seed labels (§3 of the paper replaces IDs with a
	// precomputed O(Δ²)-coloring to avoid repeated log* n terms). nil means
	// "unset", for which Label reports -1.
	Labels []int64
}

// NewTopology wraps g without seed labels.
func NewTopology(g *graph.Graph) *Topology { return &Topology{G: g} }

// N returns the number of vertices: G's edges on a line topology.
func (t *Topology) N() int {
	if t.Line != nil {
		return t.Line.N()
	}
	return t.G.N()
}

// Degree returns the degree of vertex v: the length of its row on a line
// topology.
func (t *Topology) Degree(v int) int {
	if t.Line != nil {
		return t.Line.Degree(v)
	}
	return t.G.Degree(v)
}

// MaxDegree returns the maximum degree, Δ(L(G)) on a line topology.
func (t *Topology) MaxDegree() int {
	if t.Line != nil {
		return t.Line.MaxDegree()
	}
	return t.G.MaxDegree()
}

// ID returns the identifier of vertex v: v itself, or on a line topology
// the canonical edge identifier u·n+v of G's edge v = {u, v}, distinct
// because G is simple.
func (t *Topology) ID(v int) int64 {
	if t.Line != nil {
		a, b := t.G.Endpoints(v)
		return int64(a)*int64(t.G.N()) + int64(b)
	}
	return int64(v)
}

// Label returns the seed label of v, or -1 when unset.
func (t *Topology) Label(v int) int64 {
	if t.Labels == nil {
		return -1
	}
	return t.Labels[v]
}

// Validate checks that a line topology's table is G's and that the labels
// cover the vertices.
func (t *Topology) Validate() error {
	if t.Line != nil && t.Line.N() != t.G.M() {
		return fmt.Errorf("sim: line table of %d rows for %d edges", t.Line.N(), t.G.M())
	}
	if t.Labels != nil && len(t.Labels) != t.N() {
		return fmt.Errorf("sim: %d labels for %d vertices", len(t.Labels), t.N())
	}
	return nil
}

// Sizer lets a message payload report its encoded size in bits. Payloads
// that do not implement Sizer are accounted as one machine word (64 bits).
// The paper's model is LOCAL (unbounded messages); this accounting measures
// how far each algorithm actually strays from CONGEST-sized messages.
type Sizer interface {
	Bits() int64
}

// Stats records the cost of an execution or of a composition of executions.
type Stats struct {
	Rounds   int
	Messages int64
	// Bits is the total traffic in bits under the Sizer accounting.
	Bits int64
	// MaxMessageBits is the largest single message observed — the CONGEST
	// yardstick (CONGEST allows O(log n) bits per message per round).
	MaxMessageBits int64
	// CongestViolations counts executed rounds whose largest message
	// exceeded the CONGEST cap given to Instrumented. It is always 0 when
	// no cap is set, so it is omitted from JSON encodings unless someone
	// is actually auditing.
	CongestViolations int64 `json:",omitempty"`
}

// Seq returns the cost of running s then o sequentially.
func (s Stats) Seq(o Stats) Stats {
	return Stats{
		Rounds:            s.Rounds + o.Rounds,
		Messages:          s.Messages + o.Messages,
		Bits:              s.Bits + o.Bits,
		MaxMessageBits:    max(s.MaxMessageBits, o.MaxMessageBits),
		CongestViolations: s.CongestViolations + o.CongestViolations,
	}
}

// Par returns the cost of running s and o concurrently on (possibly
// overlapping) parts of the network: rounds take the maximum, messages add.
// This is the paper's accounting for "for each Gi in parallel do".
func (s Stats) Par(o Stats) Stats {
	r := s.Rounds
	if o.Rounds > r {
		r = o.Rounds
	}
	return Stats{
		Rounds:            r,
		Messages:          s.Messages + o.Messages,
		Bits:              s.Bits + o.Bits,
		MaxMessageBits:    max(s.MaxMessageBits, o.MaxMessageBits),
		CongestViolations: s.CongestViolations + o.CongestViolations,
	}
}

// ParAll folds Par over a set of concurrent executions.
func ParAll(all []Stats) Stats {
	var acc Stats
	for _, s := range all {
		acc = acc.Par(s)
	}
	return acc
}

// ErrRoundLimit is returned when an execution exceeds its round budget,
// which in this codebase always indicates an algorithm bug (deadlock or
// non-termination), not an expected condition.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// Exec runs a node program to global termination. Engine values implement
// it; Instrumented wraps an Engine with a per-round hook and a CONGEST
// cap. Algorithm packages accept an Exec so callers can observe every
// constituent execution of a composed algorithm without the algorithms
// knowing.
//
// Cancellation is ctx-native: every engine checks ctx at each round
// boundary and aborts with an error wrapping context.Cause(ctx), so
// deadlines and cancellation propagate through arbitrarily deep algorithm
// compositions without observer-based plumbing.
type Exec interface {
	Run(ctx context.Context, t *Topology, f Factory, maxRounds int) (Stats, error)
}

// OrSequential normalizes a possibly-nil Exec (the zero value of an Options
// struct holding an Exec interface) to the Sequential engine.
func OrSequential(e Exec) Exec {
	if e == nil {
		return Sequential
	}
	return e
}

// RoundEvent describes one executed round of one execution, delivered to a
// RoundHook. Stats are cumulative for that execution.
type RoundEvent struct {
	// Round is the 0-based index of the round that just executed.
	Round int
	// Running is the number of vertices still running after the round.
	Running int
	// N is the vertex count of the execution's topology. Composed
	// algorithms run many executions, often on subtopologies; N lets an
	// observer tell them apart.
	N int
	// Stats is the cumulative cost of this execution so far.
	Stats Stats
	// RoundMaxBits is the largest single message of this round — the
	// bandwidth of the round's hottest edge, 0 in a silent round. Observers
	// histogram it to see CONGEST behavior over time.
	RoundMaxBits int64
}

// RoundHook observes rounds as they execute. It is purely a tracing
// mechanism: hooks cannot abort a run (cancel the execution's context to do
// that).
type RoundHook func(RoundEvent)

// Instrumented returns an Exec that runs like base, calling hook after
// every executed round (nil: no hook) and adding one to
// Stats.CongestViolations for every round whose largest message exceeds
// capBits (0: no cap). Violations are counted, never enforced. Because
// composed algorithms thread the Exec they are given to all their
// sub-executions, and Seq and Par sum violations, a cap set here audits
// the whole composition.
func Instrumented(base Engine, hook RoundHook, capBits int64) Exec {
	if hook == nil && capBits == 0 {
		return base
	}
	return observedExec{base: base, hook: hook, capBits: capBits}
}

type observedExec struct {
	base    Engine
	hook    RoundHook
	capBits int64
}

func (o observedExec) Run(ctx context.Context, t *Topology, f Factory, maxRounds int) (Stats, error) {
	return o.base.run(ctx, t, f, maxRounds, o.hook, o.capBits)
}

// instance holds the shared execution state of one run.
//
// Both message planes keep what a vertex broadcasts in two n-slot slabs
// alternating by round parity: slab round%2 holds, at v, what v broadcast
// in that round, and v's inbox is gathered from the other slab through its
// adjacency list Adj(v), whose port order is the arc order of Range(v), or
// on a line topology through its row of the line table, in row order.
// On the word plane wouts[round%2][v] is the Word v returned (NoWord:
// silence); under an ActiveSet, carryRound keeps an idle vertex's word in
// both slabs. On the port plane bouts[round%2][v] is v's SendAll of that
// round (nil: none), and every slot of a slab is nil unless heard says
// that some vertex broadcast in the round that wrote it. The port plane's
// unicasts arrive in the mail buffer, v's being mail[at[v]:at[v+1]] when
// mailed says the last round sent any (deliver).
//
// Halted vertices' dead inboxes are never built, and the buffer swap is a
// parity flip. The slabs are allocated once per run, the unicast buffers
// when first needed; the round loop performs no heap allocations in its
// steady state.
type instance struct {
	t         *Topology
	g         *graph.Graph
	line      *graph.LineTable
	n         int
	done      []bool
	remaining int
	// The port plane: the run's PortProgram, its broadcast slabs, whether
	// the last round broadcast, and the unicast inboxes the last round
	// delivered.
	ports  PortProgram
	bouts  [2][]Message
	heard  bool
	mail   []Mail
	at     []int32
	mailed bool
	// The word plane (words.go): the run's WordProgram, its WordSizer
	// (nil: the default 64-bit accounting), and the two n-slot outbox
	// slabs. Inbox windows and scratch slabs belong to the shards of the
	// run's plan.
	prog  WordProgram
	sizer WordSizer
	wouts [2][]Word
	// active is the word program's ActiveSet (nil: every round steps
	// every running vertex), and traffic the running sums of what its
	// broadcasting vertices send per round.
	active  ActiveSet
	traffic tally
	// newly and pending are reusable lists of capacity n of the vertices
	// that halted in the current and the previous round, over one 2n-slot
	// slab. Within a round each shard writes its halts into its own region
	// of newly's backing array; the round loop compacts them, and
	// retireRound drains both.
	newly   []int32
	pending []int32
}

func newInstance(t *Topology, f Factory) (*instance, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.N()
	halts := make([]int32, 2*n)
	inst := &instance{
		t:         t,
		g:         t.G,
		line:      t.Line,
		n:         n,
		done:      make([]bool, n),
		remaining: n,
		newly:     halts[:0:n],
		pending:   halts[n:n],
	}
	// The Factory's type picks the message plane; only the chosen plane's
	// slabs are allocated.
	switch p := f.(type) {
	case WordProgram:
		inst.prog = p
		inst.sizer, _ = p.(WordSizer)
		inst.active, _ = p.(ActiveSet)
		slab := make([]Word, 2*n)
		for v := range slab {
			slab[v] = NoWord
		}
		inst.wouts = [2][]Word{slab[:n:n], slab[n:]}
	case PortProgram:
		// Port addressing, unicast delivery and mates are G's arcs; a line
		// topology has rows, not arcs.
		if t.Line != nil {
			return nil, fmt.Errorf("sim: port program %T on a line topology: only word programs run on line topologies", f)
		}
		inst.ports = p
		slab := make([]Message, 2*n)
		inst.bouts = [2][]Message{slab[:n:n], slab[n:]}
	default:
		return nil, fmt.Errorf("sim: program %T is neither a PortProgram nor a WordProgram", f)
	}
	return inst, nil
}

// sendStats aggregates the traffic one vertex emitted in one round.
type sendStats struct {
	msgs    int64
	bits    int64
	maxBits int64
}

func (a *sendStats) add(b sendStats) {
	a.msgs += b.msgs
	a.bits += b.bits
	if b.maxBits > a.maxBits {
		a.maxBits = b.maxBits
	}
}

// stepVertex advances vertex v on the port plane and returns its emitted
// traffic plus whether the vertex halted during this call: the program
// steps v on its inbox and the shard's outbox and scratch, and v's
// broadcast, or nil, is stored in its slot of the round's slab.
//
//distcolor:noalloc
func (inst *instance) stepVertex(v, round int, s *shard) (sendStats, bool) {
	in := inst.inbox(v, round, s)
	o := &s.out
	lo, _ := inst.g.Range(v)
	o.begin(inst.g.Adj(v), lo)
	halted := inst.ports.Step(v, round, in, o, s.scratch)
	inst.bouts[round&1][v] = o.all
	return o.sent, halted
}

// inbox returns v's port-plane inbox for the round: its mail, merged in
// port order with its neighbors' broadcasts of the previous round when
// there were any. Without broadcasts the inbox is v's part of the mail
// buffer itself; with them it is built in the shard's window. A port
// carries a broadcast or a unicast, never both.
//
//distcolor:noalloc
func (inst *instance) inbox(v, round int, s *shard) []Mail {
	var mail []Mail
	if inst.mailed {
		lo, hi := inst.at[v], inst.at[v+1]
		mail = inst.mail[lo:hi:hi]
	}
	if !inst.heard {
		return mail
	}
	prev := inst.bouts[(round&1)^1]
	adj := inst.g.Adj(v)
	in := s.box[:len(adj)]
	k, u := 0, 0
	for p, a := range adj {
		if m := prev[a.To]; m != nil {
			in[k] = Mail{Port: int32(p), Msg: m}
			k++
		} else if u < len(mail) && int(mail[u].Port) == p {
			in[k] = mail[u]
			k++
			u++
		}
	}
	return in[:k:k]
}

// deliver packs the round's unicasts into the inboxes the next round
// reads, skipping those to halted receivers. One stable counting sort by
// receiver places them: the records are read in ascending sender order,
// a reversed shard's backwards, and each CSR range lists its neighbors in
// ascending order, so every inbox comes out in port order. It then empties
// the shards' record lists.
//
//distcolor:noalloc
func (inst *instance) deliver(shards []shard) {
	total := 0
	for i := range shards {
		total += len(shards[i].out.recs)
	}
	inst.mailed = total > 0
	if total == 0 {
		return
	}
	if cap(inst.mail) < total {
		inst.growMail(total)
	}
	// Count v's mail at at[v+2]; the prefix sums then leave at[v+1] at the
	// start of v's mail, and posting advances it to the end, which is the
	// start of v+1's: afterwards v's mail is mail[at[v]:at[v+1]].
	at := inst.at
	clear(at)
	for i := range shards {
		for _, r := range shards[i].out.recs {
			if !inst.done[r.to] {
				at[r.to+2]++
			}
		}
	}
	for v := 2; v < len(at); v++ {
		at[v] += at[v-1]
	}
	for i := range shards {
		s := &shards[i]
		recs := s.out.recs
		if s.reverse {
			for k := len(recs) - 1; k >= 0; k-- {
				inst.post(&recs[k])
			}
		} else {
			for k := range recs {
				inst.post(&recs[k])
			}
		}
		s.out.recs = recs[:0]
	}
}

// post places one unicast at the end of its receiver's mail so far; the
// port it arrives on is the mate arc's offset in the receiver's range.
//
//distcolor:noalloc
func (inst *instance) post(r *record) {
	if inst.done[r.to] {
		return
	}
	lo, _ := inst.g.Range(int(r.to))
	i := inst.at[r.to+1]
	inst.at[r.to+1] = i + 1
	inst.mail[i] = Mail{Port: inst.g.Mates()[r.arc] - int32(lo), Msg: r.msg}
}

// growMail sizes the mail buffer for a round of total unicasts, at least
// doubling it, and allocates the inbox index with the first buffer. A
// program whose first round of unicasts is its busiest, such as the
// Lemma 5.1 merge, allocates one buffer per run.
func (inst *instance) growMail(total int) {
	if inst.at == nil {
		inst.at = make([]int32, inst.n+2)
	}
	inst.mail = make([]Mail, max(total, 2*cap(inst.mail)))
}

// stepVertexWord is stepVertex on the word plane: the inbox is gathered
// into the shard's window from the neighbors' slots of the previous
// round's outbox slab, over v's adjacency or, on a line topology, over its
// row, the program steps v with the shard's scratch, and the returned word
// is stored in v's slot of the current slab. A word broadcast to deg ports
// is deg messages of WordBits(w) bits each (64 without a WordSizer),
// exactly as if it had been sent port by port.
//
//distcolor:noalloc
func (inst *instance) stepVertexWord(v, round int, s *shard) (sendStats, bool) {
	prevOut := inst.wouts[(round&1)^1]
	var in []Word
	if inst.line != nil {
		row := inst.line.Row(v)
		in = s.win[:len(row):len(row)]
		for p, f := range row {
			in[p] = prevOut[f]
		}
	} else {
		adj := inst.g.Adj(v)
		in = s.win[:len(adj):len(adj)]
		for p, a := range adj {
			in[p] = prevOut[a.To]
		}
	}
	w, halted := inst.prog.StepWord(v, round, in, s.scratch)
	inst.wouts[round&1][v] = w
	if w == NoWord || len(in) == 0 {
		return sendStats{}, halted
	}
	b := int64(64)
	if inst.sizer != nil {
		b = inst.sizer.WordBits(w)
	}
	deg := int64(len(in))
	return sendStats{msgs: deg, bits: deg * b, maxBits: b}, halted
}

// stepVertexActive is stepVertexWord for a program with an ActiveSet,
// whose idle vertices send too: instead of returning its traffic, the step
// moves v's share of the running sums, in the shard's delta, from its
// previous word (the one this round reads) to the word it returns.
//
//distcolor:noalloc
func (inst *instance) stepVertexActive(v, round int, s *shard) bool {
	prev := inst.wouts[(round&1)^1][v]
	st, halted := inst.stepVertexWord(v, round, s)
	s.delta.add(st, 1)
	s.delta.add(inst.wordTraffic(prev, inst.t.Degree(v)), -1)
	return halted
}

// wordTraffic is the traffic of broadcasting w to deg ports: deg messages
// of WordBits(w) bits each (64 without a WordSizer), none for silence.
//
//distcolor:noalloc
func (inst *instance) wordTraffic(w Word, deg int) sendStats {
	if w == NoWord || deg == 0 {
		return sendStats{}
	}
	b := int64(64)
	if inst.sizer != nil {
		b = inst.sizer.WordBits(w)
	}
	d := int64(deg)
	return sendStats{msgs: d, bits: d * b, maxBits: b}
}

// carryRound ends a round of a program with an ActiveSet. Only the
// stepped vertices wrote their slot of the round's slab, and every other
// running vertex's word stands in both slabs, so copying the stepped slots
// (the whole slab after an all-round) into the slab the next round writes
// leaves there the word each idle vertex keeps sending. It runs before
// retireRound, which then silences the vertices that halted, so none is
// revived. The words of the vertices that halted this round leave the
// running sums.
//
//distcolor:noalloc
func (inst *instance) carryRound(round int, vs []int32, all bool) {
	cur, next := inst.wouts[round&1], inst.wouts[(round&1)^1]
	if all {
		copy(next, cur)
	} else {
		for _, v := range vs {
			next[v] = cur[v]
		}
	}
	for _, v := range inst.newly {
		inst.traffic.add(inst.wordTraffic(cur[v], inst.t.Degree(int(v))), -1)
	}
}

// retireRound runs at the end of each round, after the slab the round read
// from (its prevOut) has been fully consumed, and silences in that slab the
// broadcast slots of the vertices that halted this round (killing their
// stale next-to-last messages) and of those that halted last round
// (killing their just-consumed final messages). After its two passes over
// a halted vertex the vertex's slot is silent in both slabs and is never
// written again, so inbox gathering reads silence from it forever — one
// slot per slab, once per vertex, not per round. A halted vertex's
// unicasts need no retiring: deliver hands each round's out exactly once.
//
//distcolor:noalloc
func (inst *instance) retireRound(round int) {
	consumed := (round & 1) ^ 1
	inst.silence(consumed, inst.newly)
	inst.silence(consumed, inst.pending)
	inst.pending, inst.newly = inst.newly, inst.pending[:0]
}

// silence clears the slots of vs in the run's outbox slab of parity slab.
//
//distcolor:noalloc
func (inst *instance) silence(slab int, vs []int32) {
	if inst.prog != nil {
		out := inst.wouts[slab]
		for _, v := range vs {
			out[v] = NoWord
		}
		return
	}
	out := inst.bouts[slab]
	for _, v := range vs {
		out[v] = nil
	}
}

// orBackground normalizes a nil ctx (tolerated for robustness) to the
// background context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		//distcolor:ignore ctxfirst nil-ctx normalization: there is no caller context to inherit here
		return context.Background()
	}
	return ctx
}

// abortErr is the engine's error for a run cut short by its context; it
// wraps context.Cause(ctx) so errors.Is(err, context.Canceled) (and
// DeadlineExceeded, and any WithCancelCause cause) keep working through the
// algorithm layers above.
func abortErr(ctx context.Context, round, remaining int) error {
	return fmt.Errorf("sim: aborted at round %d (%d vertices still running): %w", round, remaining, context.Cause(ctx))
}

// shard is one contiguous vertex range [lo, hi) of a run's step plan,
// stepped in index order, or in reverse index order when reverse is set.
// In a round whose ActiveSet names the acting vertices, subset is set and
// act is the shard's part of them, the names within [lo, hi). scratch is
// the shard's own program scratch, win its word-plane inbox window, and
// box and out its port-plane inbox window and outbox; sent and halted are
// the traffic and the halt count of the shard's last stepped round, and
// delta its changes to an ActiveSet program's running sums.
type shard struct {
	lo, hi  int
	reverse bool
	subset  bool
	act     []int32
	win     []Word
	box     []Mail
	out     Outbox
	scratch []Word
	sent    sendStats
	halted  int
	delta   tally
}

// stepShard advances the shard's running vertices by one round in the
// shard's step order, on the run's plane: all of them, or in a subset
// round those in act. The vertices that halt are written by index into
// the shard's own region [lo, hi) of the newly slab, so concurrent shards
// never share a slot; the round loop compacts the regions after the
// barrier.
//
//distcolor:noalloc
func (inst *instance) stepShard(s *shard, round int) {
	newly := inst.newly[s.lo:s.hi:s.hi]
	var sent sendStats
	k := 0
	if inst.ports != nil && cap(s.out.recs) == 0 {
		s.out.size = min(s.hi-s.lo, inst.remaining)
	}
	subset, act := s.subset, s.act
	first, last := s.lo, s.hi
	if subset {
		first, last = 0, len(act)
	}
	i, end, di := first, last, 1
	if s.reverse {
		i, end, di = last-1, first-1, -1
	}
	for ; i != end; i += di {
		v := i
		if subset {
			v = int(act[i])
		}
		if inst.done[v] {
			continue
		}
		var st sendStats
		var halted bool
		switch {
		case inst.prog == nil:
			st, halted = inst.stepVertex(v, round, s)
		case inst.active == nil:
			st, halted = inst.stepVertexWord(v, round, s)
		default:
			halted = inst.stepVertexActive(v, round, s)
		}
		sent.add(st)
		if halted {
			inst.done[v] = true
			newly[k] = int32(v)
			k++
		}
	}
	s.sent, s.halted = sent, k
}

// stepGrain is the parallel engine's shard grain, tuned on the flat data
// plane: one worker per at least this many vertices.
const stepGrain = 256

// shardWorkers sizes a shard pass: at most one worker per grain units of
// work, capped at NumCPU, at least one.
func shardWorkers(work, grain int) int {
	w := runtime.NumCPU()
	if byGrain := work / grain; w > byGrain {
		w = byGrain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Engine selects an execution engine; the zero value is the sequential one.
// Every engine runs the same round loop (run) over its own shard plan
// (plan); engines differ only in how a round's vertices are split and
// ordered.
type Engine int

const (
	// Sequential is the deterministic single-threaded engine: one shard
	// over [0, n), stepped in index order.
	Sequential Engine = iota
	// Parallel is the goroutine-sharded engine: contiguous shards stepped
	// concurrently, one goroutine per shard and one barrier per round. The
	// execution is bit-identical to Sequential.
	Parallel
	// ReverseSequential steps one shard in reverse index order. Synchronous
	// message passing makes the in-round order semantically irrelevant;
	// this engine exists to prove that: any program whose results depend on
	// intra-round scheduling (e.g. by leaking state through shared memory
	// mid-round) diverges from Sequential under test.
	ReverseSequential
)

// Run executes the algorithm to global termination on the selected engine.
func (e Engine) Run(ctx context.Context, t *Topology, f Factory, maxRounds int) (Stats, error) {
	return e.run(ctx, t, f, maxRounds, nil, 0)
}

// plan lays the engine's step order over inst as shards: one forward shard
// for Sequential, one reversed shard for ReverseSequential, and
// shardWorkers(n, stepGrain) contiguous forward shards for Parallel. Worker
// sizing is grain-based: a shard must carry enough vertices for its
// goroutine spawn plus barrier share (on the order of a microsecond) to
// pay for itself, so small topologies run on few (or single) goroutines.
// Each shard owns a scratch slab of f.Scratch(Δ) words and an inbox
// window of Δ entries on either plane, and on the port plane its outbox
// and unicast records, and within a round it writes only its own
// vertices' outbox slots and program slots, its own window, scratch and
// records, and its own region of the newly slab, which is why one barrier
// per round suffices.
func (e Engine) plan(inst *instance, f Factory) []shard {
	n := inst.n
	workers := 1
	if e == Parallel {
		workers = shardWorkers(n, stepGrain)
	}
	maxDeg := inst.t.MaxDegree()
	scratch := f.Scratch(maxDeg)
	shards := make([]shard, workers)
	chunk := (n + workers - 1) / workers
	for i := range shards {
		s := &shards[i]
		s.lo, s.hi = min(i*chunk, n), min((i+1)*chunk, n)
		s.reverse = e == ReverseSequential
		s.scratch = make([]Word, scratch)
		if inst.prog != nil {
			s.win = make([]Word, maxDeg)
		} else {
			s.box = make([]Mail, maxDeg)
		}
	}
	return shards
}

// run is the simulator's round loop, shared by every engine and by
// Instrumented wrappers. Each round it steps the plan's shards (directly
// when there is one, else one goroutine per shard up to a barrier), folds
// their traffic and halts, and then does the round's bookkeeping once:
// abort and round-limit checks, Stats and the CONGEST cap, halt
// retirement and the hook. Under an ActiveSet it first hands each shard
// its part of the round's acting vertices, and the round's traffic is the
// running sums, read before carryRound.
func (e Engine) run(ctx context.Context, t *Topology, f Factory, maxRounds int, hook RoundHook, capBits int64) (Stats, error) {
	ctx = orBackground(ctx)
	inst, err := newInstance(t, f)
	if err != nil {
		return Stats{}, err
	}
	shards := e.plan(inst, f)
	var stats Stats
	for round := 0; inst.remaining > 0; round++ {
		if ctx.Err() != nil {
			return stats, abortErr(ctx, round, inst.remaining)
		}
		if round >= maxRounds {
			return stats, fmt.Errorf("%w after %d rounds (%d vertices still running)", ErrRoundLimit, round, inst.remaining)
		}
		// An ActiveSet names the round's acting vertices; each shard
		// takes the names within its range.
		var vs []int32
		all := true
		if inst.active != nil {
			vs, all = inst.active.Active(round)
			for i := range shards {
				s := &shards[i]
				s.subset = !all
				if !all {
					first, _ := slices.BinarySearch(vs, int32(s.lo))
					last, _ := slices.BinarySearch(vs, int32(s.hi))
					s.act = vs[first:last]
				}
			}
		}
		if len(shards) == 1 {
			inst.stepShard(&shards[0], round)
		} else {
			var wg sync.WaitGroup
			for i := range shards {
				wg.Add(1)
				go func(s *shard, round int) {
					defer wg.Done()
					inst.stepShard(s, round)
				}(&shards[i], round)
			}
			wg.Wait()
		}
		// Fold the shards, compacting their halted vertices to the front
		// of newly. A region only moves towards the front and never
		// reaches the next region's start, so the in-place append
		// overwrites nothing still unread.
		var sent sendStats
		newly := inst.newly[:0]
		for i := range shards {
			s := &shards[i]
			sent.add(s.sent)
			inst.remaining -= s.halted
			newly = append(newly, inst.newly[s.lo:s.lo+s.halted]...)
		}
		inst.newly = newly
		if inst.active != nil {
			for i := range shards {
				inst.traffic.merge(&shards[i].delta)
			}
			sent = inst.traffic.sent()
			inst.carryRound(round, vs, all)
		}
		if inst.ports != nil {
			inst.heard = false
			for i := range shards {
				inst.heard = inst.heard || shards[i].out.loud
				shards[i].out.loud = false
			}
			inst.deliver(shards)
		}
		stats.Messages += sent.msgs
		stats.Bits += sent.bits
		if sent.maxBits > stats.MaxMessageBits {
			stats.MaxMessageBits = sent.maxBits
		}
		if capBits > 0 && sent.maxBits > capBits {
			stats.CongestViolations++
		}
		inst.retireRound(round)
		stats.Rounds++
		if hook != nil {
			hook(RoundEvent{Round: round, Running: inst.remaining, N: inst.n, Stats: stats,
				RoundMaxBits: sent.maxBits})
		}
	}
	return stats, nil
}
