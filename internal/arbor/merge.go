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
	n := g.N()
	errs := make([]error, n)
	assigned := make([]int, n)
	factory := sim.Machines(func(info sim.NodeInfo) sim.Machine {
		v := info.V
		role := roleIdle
		if spec.RoleA[v] {
			role = roleA
		} else if spec.RoleB[v] {
			role = roleB
		}
		return &mergeMachine{
			g:       g,
			v:       v,
			role:    role,
			spec:    &spec,
			errSink: &errs[v],
			cntSink: &assigned[v],
		}
	})
	stats, err := eng.Run(ctx, sim.NewTopology(g), factory, 2*spec.D+4)
	if err != nil {
		return nil, fmt.Errorf("arbor: merge: %w", err)
	}
	total := 0
	for v := 0; v < n; v++ {
		if errs[v] != nil {
			return nil, errs[v]
		}
		total += assigned[v]
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
// A-endpoint.
type offerMsg struct {
	colors []int64
}

// Bits implements sim.Sizer: one word per carried color (the Lemma 5.1
// procedure is the one genuinely LOCAL-sized message in this codebase).
func (o offerMsg) Bits() int64 { return 64 * int64(len(o.colors)) }

// replyMsg carries the color assigned by the B-endpoint.
type replyMsg struct {
	color int64
}

// Bits implements sim.Sizer.
func (replyMsg) Bits() int64 { return 64 }

type mergeMachine struct {
	g       *graph.Graph
	v       int
	role    mergeRole
	spec    *MergeSpec
	errSink *error
	cntSink *int

	// A-side state.
	crossPorts []int   // ports of my uncolored crossing edges, label i = index i−1
	offerBuf   []int64 // reusable offer payload (consumed by the receiver before the next overwrite)
	// B-side state: bitset palettes over [0, Palette) (colors at or above
	// the crossing palette can never be picked, so they are not tracked).
	// myColors marks the colors on my incident edges (kept fresh);
	// offerScratch marks one offer's colors during pickColor and is wiped
	// back to zero before the step returns.
	myColors     []uint64
	offerScratch []uint64
}

// markColor inserts c (which must be in [0, Palette)) into the bitset.
func markColor(set []uint64, c int64) {
	set[c>>6] |= 1 << (uint(c) & 63)
}

func (mm *mergeMachine) Step(round int, in []sim.Message, out []sim.Message) bool {
	spec := mm.spec
	adj := mm.g.Adj(mm.v)
	switch {
	case round == 0:
		sim.SendAll(out, int64(mm.role))
		return mm.role == roleIdle
	case round == 1 && mm.role == roleA:
		// Learn neighbor roles; label my uncolored crossing edges.
		for p, a := range adj {
			if spec.EdgeColors[a.Edge] >= 0 {
				continue
			}
			if r, ok := in[p].(int64); ok && mergeRole(r) == roleB {
				mm.crossPorts = append(mm.crossPorts, p)
			}
		}
		if len(mm.crossPorts) > spec.D {
			*mm.errSink = fmt.Errorf("arbor: merge: vertex %d has %d crossing edges, bound D=%d", mm.v, len(mm.crossPorts), spec.D)
			return true
		}
		mm.sendOffer(0, out)
		return false
	case mm.role == roleA && round >= 2 && round%2 == 1:
		// Round 2i+1: record the reply for label i (i = (round−1)/2 ≥ 1),
		// then offer label i+1.
		i := (round - 1) / 2
		if i >= 1 && i <= len(mm.crossPorts) {
			p := mm.crossPorts[i-1]
			rep, ok := in[p].(replyMsg)
			if !ok {
				*mm.errSink = fmt.Errorf("arbor: merge: vertex %d missing reply for label %d", mm.v, i)
				return true
			}
			spec.EdgeColors[adj[p].Edge] = rep.color
		}
		if i >= len(mm.crossPorts) {
			return true // all my labels are colored
		}
		mm.sendOffer(i, out)
		return false
	case mm.role == roleB && round >= 2 && round%2 == 0:
		// Round 2i: process the offers of label i.
		if mm.myColors == nil {
			words := (spec.Palette + 63) / 64
			mm.myColors = make([]uint64, words)
			mm.offerScratch = make([]uint64, words)
			for _, a := range adj {
				if c := spec.EdgeColors[a.Edge]; c >= 0 && c < spec.Palette {
					markColor(mm.myColors, c)
				}
			}
		}
		for p, m := range in {
			offer, ok := m.(offerMsg)
			if !ok {
				continue
			}
			c, found := mm.pickColor(offer.colors)
			if !found {
				*mm.errSink = fmt.Errorf("arbor: merge: vertex %d found no free color below %d", mm.v, spec.Palette)
				return true
			}
			spec.EdgeColors[adj[p].Edge] = c
			markColor(mm.myColors, c)
			*mm.cntSink++
			out[p] = replyMsg{color: c}
		}
		if round >= 2*spec.D {
			return true // the last possible offer arrived this round
		}
		return false
	case mm.role == roleB || mm.role == roleA:
		// Off-cycle rounds: nothing to do, keep listening.
		return false
	default:
		return true
	}
}

// sendOffer emits the label-(i+1) offer: the colors of all my edges. The
// payload slice is the machine's reusable buffer: the receiver consumes it
// in the very next round, before the next sendOffer (two rounds later)
// overwrites it.
func (mm *mergeMachine) sendOffer(i int, out []sim.Message) {
	if i >= len(mm.crossPorts) {
		return
	}
	adj := mm.g.Adj(mm.v)
	if mm.offerBuf == nil {
		mm.offerBuf = make([]int64, 0, len(adj))
	}
	colors := mm.offerBuf[:0]
	for _, a := range adj {
		if c := mm.spec.EdgeColors[a.Edge]; c >= 0 {
			colors = append(colors, c)
		}
	}
	mm.offerBuf = colors
	out[mm.crossPorts[i]] = offerMsg{colors: colors}
}

// pickColor returns the smallest color < Palette avoiding my colors and the
// offered colors, scanning the two bitset palettes word-wise.
func (mm *mergeMachine) pickColor(offered []int64) (int64, bool) {
	pal := mm.spec.Palette
	for _, c := range offered {
		if c >= 0 && c < pal {
			markColor(mm.offerScratch, c)
		}
	}
	picked, found := int64(0), false
	for w := range mm.myColors {
		if free := ^(mm.myColors[w] | mm.offerScratch[w]); free != 0 {
			c := int64(w)*64 + int64(bits.TrailingZeros64(free))
			if c < pal {
				picked, found = c, true
			}
			break
		}
	}
	for _, c := range offered {
		if c >= 0 && c < pal {
			mm.offerScratch[c>>6] = 0
		}
	}
	return picked, found
}
