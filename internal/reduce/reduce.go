// Package reduce implements distributed palette-reduction subroutines: the
// "basic reduction" the paper invokes for trimming a handful of excess
// colors (iterating over color classes, one round per dropped color), and
// the Kuhn–Wattenhofer halving reduction that brings a palette of size m
// down to T within O(T·log(m/T)) rounds. Together with package linial these
// form the repository's substitute for the black box [17]: same palettes,
// deterministic, with round complexity O(Δ log Δ + log* n) (see DESIGN.md
// §1.3 for the substitution rationale).
//
// Both are one word program, kwProgram, on two schedules, and it renumbers
// lazily: a vertex keeps its color in the run's starting numbering and
// maps it into a phase's numbering where it reads it, so only round 0 and
// the last round step every vertex, and every other round steps the one
// color class it recolors.
//
// Both programs run on any topology; callers use them for edge colorings by
// running them on a line topology (vc.LineTopology).
package reduce

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// Result is a reduced coloring plus its execution cost.
type Result struct {
	Colors  []int64
	Palette int64
	Stats   sim.Stats
}

// TrimClasses reduces the proper coloring given by the topology's labels
// from palette m to palette target, one color class per round: for
// c = m-1 … target, every vertex colored c simultaneously recolors to the
// smallest color in [0, target) unused by its neighbors. This is the
// Kuhn–Wattenhofer program on one block of size m, whose closing
// renumbering is the identity. Requires target ≥ Δ+1. Cost: m − target + 1
// rounds.
func TrimClasses(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	return runSchedule(ctx, eng, t, m, target, m, "trim")
}

// smallestFree returns the least offset in [0, limit) such that
// base+offset appears in no inbox word (base ≥ 0, so silent NoWord ports
// never match). At most len(in) offsets can be taken, so only the first
// len(in)+1 are tracked, in the stepping shard's scratch. Every vertex the
// shard steps shares that scratch, so the slots are cleared first.
//
//distcolor:noalloc
func smallestFree(in []sim.Word, base, limit int64, scratch []sim.Word) int64 {
	span := min(int64(len(in))+1, limit)
	taken := scratch[:span:span]
	clear(taken)
	for _, c := range in {
		if c >= base && c < base+span {
			taken[c-base] = 1
		}
	}
	for off, t := range taken {
		if t == 0 {
			return int64(off)
		}
	}
	// Unreachable when limit ≥ deg+1.
	panicNoFreeColor(base, limit, len(in))
	return 0
}

// panicNoFreeColor reports the invariant violation out of line, keeping
// the Sprintf boxing off the noalloc hot path.
func panicNoFreeColor(base, limit int64, deg int) {
	panic(fmt.Sprintf("reduce: no free color in [%d,%d) among %d neighbors", base, base+limit, deg))
}

// KuhnWattenhofer reduces the proper coloring given by the topology's
// labels from palette m to palette target within O(target·log(m/target))
// rounds, by repeatedly splitting the palette into blocks of 2·target and
// reducing each block to target in parallel [Kuhn & Wattenhofer, PODC'06].
// Requires target ≥ Δ+1.
func KuhnWattenhofer(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	return runSchedule(ctx, eng, t, m, target, 2*target, "kw")
}

// runSchedule runs kwProgram on the plan of kwSchedule(m, target, block).
func runSchedule(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target, block int64, name string) (*Result, error) {
	eng = sim.OrSequential(eng)
	if err := checkArgs(t, m, target); err != nil {
		return nil, err
	}
	if m <= target {
		return passThrough(t, m)
	}
	p := newKWProgram(seedColors(t), kwSchedule(m, target, block))
	stats, err := eng.Run(ctx, t, p, len(p.schedule)+3)
	if err != nil {
		return nil, fmt.Errorf("reduce: %s: %w", name, err)
	}
	return &Result{Colors: p.colors, Palette: target, Stats: stats}, nil
}

// kwRound is one round of the KW program: process class s (mod b) of
// phase j.
type kwRound struct {
	b int64 // block size of the current phase
	s int64 // class processed this round (t ≤ s < b)
	t int64 // target slots per block
	j uint8 // phase index: the phase's numbering is F_j of the run's starting one
}

// kwSchedule derives the full deterministic round plan for reducing m → t
// in blocks of size block: Kuhn–Wattenhofer's is 2t, and block = m is the
// class-by-class trim, one phase of m − t rounds. The plan is allocated
// once, at its length kwRounds.
func kwSchedule(m, t, block int64) []kwRound {
	plan := make([]kwRound, 0, kwRounds(m, t, block))
	for j := uint8(0); m > t; j, m = j+1, kwPalette(m, t, block) {
		// A block larger than the palette is one partial block: plain
		// class iteration within it.
		b := min(block, m)
		for s := b - 1; s >= t; s-- {
			plan = append(plan, kwRound{b: b, s: s, t: t, j: j})
		}
	}
	return plan
}

// kwRounds is the length of kwSchedule(m, t, block): each phase processes
// the classes t … b−1 of its block size b.
func kwRounds(m, t, block int64) int64 {
	var rounds int64
	for ; m > t; m = kwPalette(m, t, block) {
		rounds += min(block, m) - t
	}
	return rounds
}

// kwPalette is the palette after a phase on palette m > t: full blocks
// contribute t each; a trailing partial block of size ≤ t survives
// unchanged (its colors are < t within the block).
func kwPalette(m, t, block int64) int64 {
	b := min(block, m)
	nb := m / b
	rem := m - nb*b
	if rem > t {
		rem = t
	}
	return nb*t + rem
}

// phaseColor is F_j: the color in phase j's numbering of a color c of the
// run's starting numbering. A phase renumbers its blocks of 2t down to t,
// c → ⌊c/2t⌋·t + c mod 2t, and the colors it leaves lie in the low half
// of their block, so j phases compose to dropping the low j bits of ⌊c/t⌋.
// A single-block phase (the trim, or KW's last, partial block) is the
// identity on the colors it leaves, so F_j serves every phase.
//
//distcolor:noalloc
func phaseColor(c, t int64, j uint8) int64 {
	if j == 0 {
		return c
	}
	q := c / t
	return (q>>j)*t + c - q*t
}

// startColor is G_j, phaseColor's inverse on the colors a run stores:
// the starting-numbering color of the phase-j color c.
//
//distcolor:noalloc
func startColor(c, t int64, j uint8) int64 {
	if j == 0 {
		return c
	}
	q := c / t
	return (q<<j)*t + c - q*t
}

// class returns the class F_j(c) mod b of a color c a run stores, in
// round r's phase j, with one division. After the first phase the block
// is KW's 2t, or its last, single block of b < 2t colors, in which
// F_j(c) < b: either way the class is bit j of ⌊c/t⌋ times t, plus
// c mod t.
//
//distcolor:noalloc
func (r kwRound) class(c int64) int64 {
	if r.j == 0 {
		return c % r.b
	}
	q := c / r.t
	return (q>>r.j&1)*r.t + c - q*r.t
}

// kwProgram is the Kuhn–Wattenhofer reduction as one run-scoped word
// program. colors[v] is v's color in the run's starting numbering (its
// seed palette), its result once it halts.
//
// Every phase renumbers the palette, but no round does it. A vertex
// keeps and broadcasts its starting-numbering color, and phase j's color
// is phaseColor's F_j of it, computed where it is read. Every color a run
// stores has the low j bits of ⌊c/t⌋ clear at phase j's start (a phase
// recolors every vertex that has bit j set), and on such colors F_j keeps
// the offset within a t-chunk and is one to one. So a recoloring vertex
// needs no neighbor's word mapped: a word lies in its phase-j window
// [base, base+t) exactly when it lies in the window's preimage
// [G_j(base), G_j(base)+t), which smallestFree scans as it is. Nor does
// the result: the last phase leaves every phase color below t, and such a
// color, stored with its low j bits clear, is below t in the starting
// numbering too, where F_j and G_j are the identity.
//
// It implements sim.ActiveSet. Round 0 and the last round, where every
// vertex halts, step every vertex; any other round, for class s, steps
// only class s: the vertices whose phase color is ≡ s (mod b). Every
// other vertex would keep its color and broadcast it again. At a phase's
// first round the classes t … b−1 are bucketed by one counting sort of
// the phase colors into members, ascending within each class, class s at
// members[start[s−t]:start[s−t+1]]. The buckets stay exact for the whole
// phase: a vertex recolors at most once per phase, in its class's round,
// and into a class below t, which no later round of the phase processes.
//
// No WordSizer: every word is accounted at 64 bits, whichever numbering
// it is in (DESIGN.md §7).
type kwProgram struct {
	colors   []int64
	schedule []kwRound
	members  []int32
	start    []int32
}

// newKWProgram returns the program of one run over colors on a non-empty
// schedule, with its buckets in one slab: n members and one start per
// class of the first phase, the widest (the palette, and with it the block
// size min(block, m), only shrinks), plus one.
func newKWProgram(colors []int64, schedule []kwRound) *kwProgram {
	classes := schedule[0].b - schedule[0].t
	n := len(colors)
	slab := make([]int32, n+int(classes)+1)
	return &kwProgram{colors: colors, schedule: schedule, members: slab[:n:n], start: slab[n:]}
}

// Scratch implements sim.Factory: the occupancy slots of smallestFree.
func (p *kwProgram) Scratch(maxDeg int) int { return maxDeg + 1 }

// Active implements sim.ActiveSet.
//
//distcolor:noalloc
func (p *kwProgram) Active(round int) ([]int32, bool) {
	if round == 0 || round == len(p.schedule) {
		return nil, true
	}
	r := p.schedule[round-1]
	if round == 1 || p.schedule[round-2].j != r.j {
		p.bucket(r)
	}
	return p.members[p.start[r.s-r.t]:p.start[r.s-r.t+1]], false
}

// bucket sorts the vertices of r's phase's classes t … b−1 (mod b) by
// class into members, by counting: start counts each class one slot
// ahead, its prefix sums are then the class starts, the fill advances
// each start to its class's end, and the shift back restores the starts.
//
//distcolor:noalloc
func (p *kwProgram) bucket(r kwRound) {
	t := r.t
	k := r.b - t
	start := p.start[: k+1 : k+1]
	clear(start)
	for _, c := range p.colors {
		if s := r.class(c); s >= t {
			start[s-t+1]++
		}
	}
	for i := int64(1); i <= k; i++ {
		start[i] += start[i-1]
	}
	for v, c := range p.colors {
		if s := r.class(c); s >= t {
			p.members[start[s-t]] = int32(v)
			start[s-t]++
		}
	}
	copy(start[1:], start[:k])
	start[0] = 0
}

// StepWord implements sim.WordProgram.
//
//distcolor:noalloc
func (p *kwProgram) StepWord(v, round int, in, scratch []sim.Word) (sim.Word, bool) {
	if round > 0 {
		r := p.schedule[round-1]
		if r.class(p.colors[v]) == r.s {
			// Recolor into my block's first t slots, avoiding all neighbor
			// colors (which are fresh as of last round; concurrent
			// recolorers share my color class and are non-adjacent). The
			// window is scanned in the starting numbering the words are in.
			base := startColor(phaseColor(p.colors[v], r.t, r.j)-r.s, r.t, r.j)
			p.colors[v] = base + smallestFree(in, base, r.t, scratch)
		}
		if round == len(p.schedule) {
			return sim.NoWord, true
		}
	}
	return p.colors[v], false
}

// Auto reduces m → target choosing the cheaper of TrimClasses
// (m−target rounds) and KuhnWattenhofer (≈ target·log₂(m/target) rounds).
func Auto(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	if m <= target {
		return passThrough(t, m)
	}
	trimCost := m - target
	kwCost := kwRounds(m, target, 2*target)
	if kwCost < trimCost {
		return KuhnWattenhofer(ctx, eng, t, m, target)
	}
	return TrimClasses(ctx, eng, t, m, target)
}

func checkArgs(t *sim.Topology, m, target int64) error {
	if t.Labels == nil {
		return fmt.Errorf("reduce: topology has no seed coloring")
	}
	if target < int64(t.MaxDegree())+1 {
		return fmt.Errorf("reduce: target %d < Δ+1 = %d", target, t.MaxDegree()+1)
	}
	if target < 1 || m < 1 {
		return fmt.Errorf("reduce: invalid palettes m=%d target=%d", m, target)
	}
	for v := 0; v < t.N(); v++ {
		if t.Labels[v] < 0 || t.Labels[v] >= m {
			return fmt.Errorf("reduce: label %d of vertex %d outside palette [0,%d)", t.Labels[v], v, m)
		}
	}
	return nil
}

// passThrough returns the input coloring unchanged at zero cost.
func passThrough(t *sim.Topology, m int64) (*Result, error) {
	if t.Labels == nil {
		return nil, fmt.Errorf("reduce: topology has no seed coloring")
	}
	return &Result{Colors: seedColors(t), Palette: m, Stats: sim.Stats{}}, nil
}

// seedColors returns a copy of the topology's seed coloring.
func seedColors(t *sim.Topology) []int64 {
	colors := make([]int64, t.N())
	copy(colors, t.Labels)
	return colors
}

// EstimateAutoRounds predicts the round cost Auto will incur, used by
// planning code and documented bounds checks in tests.
func EstimateAutoRounds(m, target int64) int64 {
	if m <= target {
		return 0
	}
	trim := m - target + 1
	kw := kwRounds(m, target, 2*target) + 1
	return min(trim, kw)
}
