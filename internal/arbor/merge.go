package arbor

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/sim"
)

// MergeSpec describes one invocation of the Lemma 5.1 procedure: color all
// currently uncolored edges crossing between the vertex sets A and B.
type MergeSpec struct {
	G *graph.Graph
	// RoleA / RoleB mark the two sides; vertices in neither are bystanders.
	// A vertex must not be in both.
	RoleA, RoleB []bool
	// EdgeColors holds the current (partial) edge coloring, −1 for
	// uncolored. Only uncolored A–B edges are assigned; everything else is
	// read-only context.
	EdgeColors []int64
	// D bounds the number of uncolored crossing edges at any A-vertex
	// (the paper's d); it determines the 2D+2 round schedule.
	D int
	// Palette is the color budget for the crossing edges: Lemma 5.1
	// guarantees feasibility when Palette ≥ Δ(B side) + D − 1.
	Palette int64
	// prog is the stage program ColorCrossing reuses across its stages
	// over one graph; nil, Merge builds one.
	prog *mergeProgram
}

// MergeResult reports the updated coloring.
type MergeResult struct {
	// EdgeColors is the input array updated in place (returned for
	// convenience).
	EdgeColors []int64
	// Assigned counts newly colored edges.
	Assigned int
	Stats    sim.Stats
}

// Merge runs the Lemma 5.1 algorithm: every A-vertex labels its uncolored
// crossing edges 1…D; in sub-phase i the B-endpoint of every label-i edge
// picks a free color. Because each A-vertex activates at most one edge per
// sub-phase, and same-phase deciders at one B-vertex are handled by that
// single vertex, all assignments are conflict-free. Our message-passing
// realization spends two rounds per sub-phase (offer, reply) plus one role
// exchange: 2D+2 rounds, matching the paper's O(d).
func Merge(ctx context.Context, eng sim.Exec, spec MergeSpec) (*MergeResult, error) {
	eng = sim.OrSequential(eng)
	g := spec.G
	if len(spec.RoleA) != g.N() || len(spec.RoleB) != g.N() {
		return nil, fmt.Errorf("arbor: merge roles sized %d,%d for %d vertices", len(spec.RoleA), len(spec.RoleB), g.N())
	}
	if len(spec.EdgeColors) != g.M() {
		return nil, fmt.Errorf("arbor: merge has %d edge colors for %d edges", len(spec.EdgeColors), g.M())
	}
	if spec.D < 0 || spec.Palette < 1 {
		return nil, fmt.Errorf("arbor: merge D=%d palette=%d invalid", spec.D, spec.Palette)
	}
	for v := 0; v < g.N(); v++ {
		if spec.RoleA[v] && spec.RoleB[v] {
			return nil, fmt.Errorf("arbor: vertex %d in both roles", v)
		}
	}
	if spec.D == 0 {
		return &MergeResult{EdgeColors: spec.EdgeColors}, nil
	}
	prog := spec.prog
	if prog == nil {
		prog = newMergeProgram(g)
	}
	prog.reset(&spec)
	// The run stays in Merge itself: tracing names an execution's layer
	// after the function that starts it.
	stats, err := eng.Run(ctx, sim.NewTopology(g), prog, 2*spec.D+4)
	if err != nil {
		return nil, fmt.Errorf("arbor: merge: %w", err)
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		if prog.errs[v] != nil {
			return nil, prog.errs[v]
		}
		total += prog.assigned[v]
	}
	return &MergeResult{EdgeColors: spec.EdgeColors, Assigned: total, Stats: stats}, nil
}

type mergeRole int

const (
	roleIdle mergeRole = iota
	roleA
	roleB
)

// offerMsg carries the colors currently on all edges of the offering
// A-endpoint. It travels as a pointer to the sender's slot of
// mergeProgram.offers, and its colors are a view of the sender's payload.
type offerMsg struct {
	colors []int64
}

// Bits implements sim.Sizer: one word per carried color (the Lemma 5.1
// procedure is the one genuinely LOCAL-sized message in this codebase).
func (o *offerMsg) Bits() int64 { return 64 * int64(len(o.colors)) }

// replyMsg is the color the B-endpoint picked for an offer. It travels as
// a pointer to the replying port's slot of the B-endpoint's payload.
type replyMsg int64

// Bits implements sim.Sizer.
func (*replyMsg) Bits() int64 { return 64 }

// mergeProgram is one Merge stage as a run-scoped sim.PortProgram. A
// vertex's state lives in n-slot slabs at index v, and its per-port state
// in arc-sized slabs over its arc range [lo, hi) = G.Range(v) (the slot-v
// rule). A message points into a slab, never into the shard
// scratch, and its sender leaves the slot alone until the receiver has
// read it in the next round: an offer's payload is rewritten two rounds
// later, and a reply slot is written once, for the port's only offer.
// The slabs are sized by the graph, so one program serves every stage
// over it; reset readies it for the next.
type mergeProgram struct {
	spec *MergeSpec
	// words is the length of one bitset over the crossing palette [0,
	// Palette); a B-vertex keeps two in the shard scratch (Scratch).
	words int
	// cross[lo:lo+ncross[v]] are A-vertex v's crossing ports, the port of
	// label i at index i−1.
	cross  []int32
	ncross []int32
	// pay holds an A-vertex's offer payload from lo on, and a B-vertex's
	// reply on port p at lo+p; no vertex has both roles.
	pay []int64
	// offers[v] is A-vertex v's current offer.
	offers []offerMsg
	// errs[v] is the error that halted v, and assigned[v] counts the
	// crossing edges B-vertex v colored.
	errs     []error
	assigned []int
	// sideA and sideB list the stage's A- and B-vertices in ascending
	// order over the n-slot slab sides (no vertex has both roles). Active
	// hands them to the engine and filters sideA in place as A-vertices
	// finish.
	sides, sideA, sideB []int32
}

func newMergeProgram(g *graph.Graph) *mergeProgram {
	n, arcs := g.N(), g.NumArcs()
	ints := make([]int32, 2*n)
	return &mergeProgram{
		cross:    make([]int32, arcs),
		ncross:   ints[:n:n],
		pay:      make([]int64, arcs),
		offers:   make([]offerMsg, n),
		errs:     make([]error, n),
		assigned: make([]int, n),
		sides:    ints[n:],
	}
}

// reset readies the program for the stage spec over the graph it was
// built for. Every other slab is written before it is read within a
// stage.
func (p *mergeProgram) reset(spec *MergeSpec) {
	p.spec = spec
	p.words = int((spec.Palette + 63) / 64)
	clear(p.errs)
	clear(p.assigned)
	k := 0
	for v, a := range spec.RoleA {
		if a {
			p.sides[k] = int32(v)
			k++
		}
	}
	p.sideA = p.sides[:k:k]
	for v, b := range spec.RoleB {
		if b {
			p.sides[k] = int32(v)
			k++
		}
	}
	p.sideB = p.sides[len(p.sideA):k]
}

// Scratch implements sim.Factory: a B-vertex's two palette bitsets, its
// incident colors and one offer's colors.
func (p *mergeProgram) Scratch(int) int { return 2 * p.words }

// Active implements sim.ActiveSet: it names the vertices of a round that
// Step would do something at, and the engine adds the receivers of the
// last round's offers and replies. Round 0, the role exchange, steps
// everyone. An A-vertex acts in odd rounds: every one in rounds 1 and 3
// (one without crossing edges halts in round 3), and in round 2i+1 ≥ 5
// those with at least i crossing edges, which are the ones still running,
// so one whose reply for label i is missing is stepped and reports it. A
// B-vertex acts when offers reach it, and every one in round 2D, where it
// halts.
func (p *mergeProgram) Active(round int) ([]int32, bool) {
	switch {
	case round == 0:
		return nil, true
	case round == 2*p.spec.D:
		return p.sideB, false
	case round%2 == 0:
		return nil, false
	case round >= 5:
		i := int32(round-1) / 2
		live := p.sideA[:0]
		for _, v := range p.sideA {
			if p.ncross[v] >= i {
				live = append(live, v)
			}
		}
		p.sideA = live
	}
	return p.sideA, false
}

func (p *mergeProgram) role(v int) mergeRole {
	switch {
	case p.spec.RoleA[v]:
		return roleA
	case p.spec.RoleB[v]:
		return roleB
	}
	return roleIdle
}

// Step implements sim.PortProgram.
func (p *mergeProgram) Step(v, round int, in []sim.Mail, out *sim.Outbox, scratch []sim.Word) bool {
	spec := p.spec
	role := p.role(v)
	lo, hi := spec.G.Range(v)
	adj := spec.G.Adj(v)
	switch {
	case round == 0:
		out.SendAll(int64(role))
		return role == roleIdle
	case round == 1 && role == roleA:
		// Learn neighbor roles; label my uncolored crossing edges.
		cross := p.cross[lo:hi:hi]
		k := 0
		for _, m := range in {
			if spec.EdgeColors[adj[m.Port].Edge] >= 0 {
				continue
			}
			if r, ok := m.Msg.(int64); ok && mergeRole(r) == roleB {
				cross[k] = m.Port
				k++
			}
		}
		p.ncross[v] = int32(k)
		if k > spec.D {
			p.errs[v] = fmt.Errorf("arbor: merge: vertex %d has %d crossing edges, bound D=%d", v, k, spec.D)
			return true
		}
		p.sendOffer(v, 0, out)
		return false
	case role == roleA && round >= 2 && round%2 == 1:
		// Round 2i+1: record the reply for label i (i = (round−1)/2 ≥ 1),
		// then offer label i+1.
		i := (round - 1) / 2
		k := int(p.ncross[v])
		if i <= k {
			port := p.cross[lo+i-1]
			rep := replyOn(in, port)
			if rep == nil {
				p.errs[v] = fmt.Errorf("arbor: merge: vertex %d missing reply for label %d", v, i)
				return true
			}
			spec.EdgeColors[adj[port].Edge] = int64(*rep)
		}
		if i >= k {
			return true // all my labels are colored
		}
		p.sendOffer(v, i, out)
		return false
	case role == roleB && round >= 2 && round%2 == 0:
		// Round 2i: process the offers of label i.
		mine, offered := scratch[:p.words], scratch[p.words:2*p.words]
		fresh := false
		for _, m := range in {
			offer, ok := m.Msg.(*offerMsg)
			if !ok {
				continue
			}
			if !fresh {
				p.markIncident(adj, mine, offered)
				fresh = true
			}
			c, found := pickColor(mine, offered, offer.colors, spec.Palette)
			if !found {
				p.errs[v] = fmt.Errorf("arbor: merge: vertex %d found no free color below %d", v, spec.Palette)
				return true
			}
			spec.EdgeColors[adj[m.Port].Edge] = c
			markColor(mine, c)
			p.assigned[v]++
			reply := &p.pay[lo+int(m.Port)]
			*reply = c
			out.Send(int(m.Port), (*replyMsg)(reply))
		}
		return round >= 2*spec.D // the last possible offer arrived this round
	case role == roleB || role == roleA:
		// Off-cycle rounds: nothing to do, keep listening.
		return false
	default:
		return true
	}
}

// replyOn returns the reply that arrived on port, nil if none did.
func replyOn(in []sim.Mail, port int32) *replyMsg {
	for _, m := range in {
		if m.Port == port {
			rep, _ := m.Msg.(*replyMsg)
			return rep
		}
	}
	return nil
}

// markIncident clears both bitsets and marks in mine the colors below
// Palette on v's edges. An A–B edge at v is written during the merge
// only with the color v picked for it, so this is the set v would have
// kept up to date since its first offer round.
func (p *mergeProgram) markIncident(adj []graph.Arc, mine, offered []sim.Word) {
	clear(mine)
	clear(offered)
	for _, a := range adj {
		if c := p.spec.EdgeColors[a.Edge]; c >= 0 && c < p.spec.Palette {
			markColor(mine, c)
		}
	}
}

// sendOffer emits the label-(i+1) offer: the colors of all of v's edges,
// written into v's payload range.
func (p *mergeProgram) sendOffer(v, i int, out *sim.Outbox) {
	if i >= int(p.ncross[v]) {
		return
	}
	lo, hi := p.spec.G.Range(v)
	pay := p.pay[lo:hi:hi]
	k := 0
	for _, a := range p.spec.G.Adj(v) {
		if c := p.spec.EdgeColors[a.Edge]; c >= 0 {
			pay[k] = c
			k++
		}
	}
	p.offers[v] = offerMsg{colors: pay[:k]}
	out.Send(int(p.cross[lo+i]), &p.offers[v])
}

// markColor inserts c (which must be in [0, Palette)) into the bitset.
func markColor(set []sim.Word, c int64) {
	set[c>>6] |= 1 << (uint(c) & 63)
}

// pickColor returns the smallest color < pal avoiding mine and the
// offered colors, scanning the two bitsets word-wise. offered is wiped
// back to zero before it returns.
func pickColor(mine, offered []sim.Word, colors []int64, pal int64) (int64, bool) {
	for _, c := range colors {
		if c >= 0 && c < pal {
			markColor(offered, c)
		}
	}
	picked, found := int64(0), false
	for w := range mine {
		if free := ^(mine[w] | offered[w]); free != 0 {
			c := int64(w)*64 + int64(bits.TrailingZeros64(uint64(free)))
			if c < pal {
				picked, found = c, true
			}
			break
		}
	}
	for _, c := range colors {
		if c >= 0 && c < pal {
			offered[c>>6] = 0
		}
	}
	return picked, found
}
