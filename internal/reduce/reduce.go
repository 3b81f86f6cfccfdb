// Package reduce implements distributed palette-reduction subroutines: the
// "basic reduction" the paper invokes for trimming a handful of excess
// colors (iterating over color classes, one round per dropped color), and
// the Kuhn–Wattenhofer halving reduction that brings a palette of size m
// down to T within O(T·log(m/T)) rounds. Together with package linial these
// form the repository's substitute for the black box [17]: same palettes,
// deterministic, with round complexity O(Δ log Δ + log* n) (see DESIGN.md
// §1.3 for the substitution rationale).
//
// Both programs run on any topology; callers use them for edge colorings by
// running them on the line-graph topology.
package reduce

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/util"
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
// smallest color in [0, target) unused by its neighbors. Requires
// target ≥ Δ+1. Cost: m − target + 1 rounds.
func TrimClasses(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	eng = sim.OrSequential(eng)
	if err := checkArgs(t, m, target); err != nil {
		return nil, err
	}
	if m <= target {
		return passThrough(t, m)
	}
	colors := make([]int64, t.G.N())
	factory := func(info sim.NodeInfo) sim.Machine {
		return sim.WrapWord(&trimMachine{color: info.Label, m: m, target: target, sink: &colors[info.V]})
	}
	stats, err := eng.Run(ctx, t, factory, int(m-target)+3)
	if err != nil {
		return nil, fmt.Errorf("reduce: trim: %w", err)
	}
	return &Result{Colors: colors, Palette: target, Stats: stats}, nil
}

type trimMachine struct {
	color  int64
	m      int64
	target int64
	sink   *int64
	// scratch marks occupied offsets during a recoloring step; it is
	// stamped with the round number so it never needs clearing. Only the
	// first deg+1 offsets can matter, keeping it small even for big
	// palettes.
	scratch []int32
}

// StepWord implements sim.WordMachine: colors are single words that every
// vertex broadcasts, so the program runs on the word plane.
func (tm *trimMachine) StepWord(round int, in []sim.Word) (sim.Word, bool) {
	// Round r processes class m-r (r ≥ 1); round 0 only broadcasts.
	if round > 0 {
		class := tm.m - int64(round)
		if tm.color == class {
			tm.color = smallestFree(in, tm.target, &tm.scratch, int32(round))
		}
		if class == tm.target {
			*tm.sink = tm.color
			return sim.NoWord, true
		}
	}
	return tm.color, false
}

// smallestFree returns the least value in [0, limit) that no inbox word
// carries. Since at most len(in) values can be occupied, only offsets up to
// len(in) are tracked; the scratch array is stamped rather than cleared.
func smallestFree(in []sim.Word, limit int64, scratch *[]int32, stamp int32) int64 {
	span := int64(len(in)) + 1
	if span > limit {
		span = limit
	}
	if int64(len(*scratch)) < span {
		*scratch = make([]int32, span)
		for i := range *scratch {
			(*scratch)[i] = -1
		}
	}
	s := *scratch
	for _, c := range in {
		if c == sim.NoWord {
			continue
		}
		if c >= 0 && c < span {
			s[c] = stamp
		}
	}
	for c := int64(0); c < span; c++ {
		if s[c] != stamp {
			return c
		}
	}
	// Unreachable when limit ≥ deg+1.
	panic(fmt.Sprintf("reduce: no free color below %d among %d neighbors", limit, len(in)))
}

// KuhnWattenhofer reduces the proper coloring given by the topology's
// labels from palette m to palette target within O(target·log(m/target))
// rounds, by repeatedly splitting the palette into blocks of 2·target and
// reducing each block to target in parallel [Kuhn & Wattenhofer, PODC'06].
// Requires target ≥ Δ+1.
func KuhnWattenhofer(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	eng = sim.OrSequential(eng)
	if err := checkArgs(t, m, target); err != nil {
		return nil, err
	}
	if m <= target {
		return passThrough(t, m)
	}
	schedule := kwSchedule(m, target)
	colors := make([]int64, t.G.N())
	factory := func(info sim.NodeInfo) sim.Machine {
		return sim.WrapWord(&kwMachine{color: info.Label, schedule: schedule, sink: &colors[info.V]})
	}
	stats, err := eng.Run(ctx, t, factory, len(schedule)+3)
	if err != nil {
		return nil, fmt.Errorf("reduce: kw: %w", err)
	}
	return &Result{Colors: colors, Palette: target, Stats: stats}, nil
}

// kwRound is one round of the KW program: process class s (mod B) and, when
// the phase ends, renumber blocks of size B down to T.
type kwRound struct {
	b             int64 // block size of the current phase
	s             int64 // class processed this round (T ≤ s < B)
	t             int64 // target slots per block
	renumberAfter bool  // phase complete: apply c → (c/B)·T + (c mod B)
}

// kwSchedule derives the full deterministic round plan for reducing m → T.
func kwSchedule(m, t int64) []kwRound {
	var plan []kwRound
	for m > t {
		b := 2 * t
		if b > m {
			b = m // single partial block; plain class iteration within it
		}
		for s := b - 1; s >= t; s-- {
			plan = append(plan, kwRound{b: b, s: s, t: t})
		}
		plan[len(plan)-1].renumberAfter = true
		// New palette: full blocks contribute T each; a trailing partial
		// block of size ≤ T survives unchanged (its colors are < T within
		// the block).
		nb := m / b
		rem := m - nb*b
		if rem > t {
			rem = t
		}
		m = nb*t + rem
	}
	return plan
}

type kwMachine struct {
	color    int64
	schedule []kwRound
	sink     *int64
	scratch  []int32 // stamped occupancy buffer, see smallestFree
}

// StepWord implements sim.WordMachine.
func (km *kwMachine) StepWord(round int, in []sim.Word) (sim.Word, bool) {
	if round > 0 {
		r := km.schedule[round-1]
		if km.color%r.b == r.s {
			// Recolor into my block's first t slots, avoiding all neighbor
			// colors (which are fresh as of last round; concurrent
			// recolorers share my color class and are non-adjacent).
			base := (km.color / r.b) * r.b
			km.color = base + smallestFreeInBlock(in, base, r.t, &km.scratch, int32(round))
		}
		if r.renumberAfter {
			// Globally synchronized local renumbering; applied by everyone
			// to their own color. Neighbor colors received next round are
			// post-renumber, keeping views consistent.
			km.color = (km.color/r.b)*r.t + km.color%r.b
		}
		if round == len(km.schedule) {
			*km.sink = km.color
			return sim.NoWord, true
		}
	}
	return km.color, false
}

// smallestFreeInBlock returns base + the least offset in [0, t) such that
// base+offset appears in no inbox word. The scratch array is stamped
// rather than cleared between rounds.
func smallestFreeInBlock(in []sim.Word, base, t int64, scratch *[]int32, stamp int32) int64 {
	span := int64(len(in)) + 1
	if span > t {
		span = t
	}
	if int64(len(*scratch)) < span {
		*scratch = make([]int32, span)
		for i := range *scratch {
			(*scratch)[i] = -1
		}
	}
	s := *scratch
	for _, c := range in {
		if c == sim.NoWord {
			continue
		}
		if c >= base && c < base+span {
			s[c-base] = stamp
		}
	}
	for off := int64(0); off < span; off++ {
		if s[off] != stamp {
			return off
		}
	}
	panic(fmt.Sprintf("reduce: block full: no offset below %d free among %d neighbors", t, len(in)))
}

// Auto reduces m → target choosing the cheaper of TrimClasses
// (m−target rounds) and KuhnWattenhofer (≈ target·log₂(m/target) rounds).
func Auto(ctx context.Context, eng sim.Exec, t *sim.Topology, m, target int64) (*Result, error) {
	if m <= target {
		return passThrough(t, m)
	}
	trimCost := m - target
	kwCost := int64(len(kwSchedule(m, target)))
	if kwCost < trimCost {
		return KuhnWattenhofer(ctx, eng, t, m, target)
	}
	return TrimClasses(ctx, eng, t, m, target)
}

func checkArgs(t *sim.Topology, m, target int64) error {
	if t.Labels == nil {
		return fmt.Errorf("reduce: topology has no seed coloring")
	}
	if target < int64(t.G.MaxDegree())+1 {
		return fmt.Errorf("reduce: target %d < Δ+1 = %d", target, t.G.MaxDegree()+1)
	}
	if target < 1 || m < 1 {
		return fmt.Errorf("reduce: invalid palettes m=%d target=%d", m, target)
	}
	for v := 0; v < t.G.N(); v++ {
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
	colors := make([]int64, t.G.N())
	copy(colors, t.Labels)
	return &Result{Colors: colors, Palette: m, Stats: sim.Stats{}}, nil
}

// EstimateAutoRounds predicts the round cost Auto will incur, used by
// planning code and documented bounds checks in tests.
func EstimateAutoRounds(m, target int64) int64 {
	if m <= target {
		return 0
	}
	trim := m - target + 1
	kw := int64(len(kwSchedule(m, target))) + 1
	return util.MinInt64(trim, kw)
}
