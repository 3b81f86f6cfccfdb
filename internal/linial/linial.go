// Package linial implements Linial's deterministic color reduction [30]: a
// proper m₀-coloring (initially, the identifiers) is reduced to an
// O(Δ² log² Δ)-coloring within O(log* m₀) communication rounds.
//
// One reduction step works over a prime field F_q. A color c < q^(d+1) is
// read as the coefficient vector of a polynomial p_c of degree ≤ d over F_q.
// Distinct colors give distinct polynomials, which agree on at most d
// points; with q ≥ dΔ+1, a vertex can always find an evaluation point x such
// that its polynomial differs from every neighbor's polynomial at x. The
// pair (x, p_c(x)) — encoded as x·q + p_c(x) < q² — becomes the new color.
// Iterating until the palette stops shrinking lands at q = O(Δ log Δ), i.e.
// a palette of O(Δ² log² Δ). This is the standard implementable form of
// Linial's bound; the remaining gap to O(Δ²) is absorbed by the reductions
// in package reduce (see DESIGN.md §5, deviation 3).
//
// The paper's §3 trick — computing this coloring once and reusing it as the
// identifier space of every recursive subproblem so that log* n is paid only
// once — is supported through the topology's seed labels: when a seed
// coloring with palette m₀ ≪ n is supplied, the schedule shortens to
// O(log* m₀) steps.
package linial

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/util"
)

// Step is one reduction round: colors in [m] are mapped into [q²] using
// degree-≤ d polynomials over F_q.
type Step struct {
	D int64 // polynomial degree bound
	Q int64 // field size (prime, ≥ dΔ+1, with q^(d+1) ≥ m)
	M int64 // resulting palette size q²
}

// maxQ guards 64-bit overflow: q² and x·q+val must stay within int64.
const maxQ = 3_000_000_000

// BuildSchedule computes the deterministic reduction schedule from an
// initial palette m0 and maximum degree delta. Every vertex derives this
// same schedule locally from global knowledge (m₀ and Δ), so no coordination
// is needed. The schedule is empty when no step shrinks the palette.
func BuildSchedule(m0 int64, delta int) []Step {
	if delta < 1 {
		delta = 1
	}
	var steps []Step
	m := m0
	for {
		best, ok := bestStep(m, delta)
		if !ok || best.M >= m {
			return steps
		}
		steps = append(steps, best)
		m = best.M
	}
}

// bestStep finds the degree d minimizing the resulting palette q².
func bestStep(m int64, delta int) (Step, bool) {
	var best Step
	found := false
	for d := int64(1); d <= 62; d++ {
		lo := d*int64(delta) + 1
		root := int64(util.CeilRoot(int(m), int(d+1)))
		if root > lo {
			lo = root
		}
		if lo > maxQ {
			continue
		}
		q := int64(util.NextPrime(int(lo)))
		if q > maxQ {
			continue
		}
		mp := q * q
		if !found || mp < best.M {
			best = Step{D: d, Q: q, M: mp}
			found = true
		}
		// Larger d can no longer help once the field size is dominated by
		// the dΔ term rather than the root term.
		if root <= d*int64(delta)+1 {
			break
		}
	}
	return best, found
}

// Result is the outcome of a Linial reduction run.
type Result struct {
	Colors  []int64 // proper coloring, one entry per vertex
	Palette int64   // all colors are < Palette
	Stats   sim.Stats
}

// Reduce runs the schedule on topology t. The starting coloring is the
// topology's seed labels when present (they must form a proper coloring
// with palette m0), otherwise the identifiers (with m0 > every ID); a
// start color outside [0, m0) is an error.
func Reduce(ctx context.Context, eng sim.Exec, t *sim.Topology, m0 int64) (*Result, error) {
	eng = sim.OrSequential(eng)
	if m0 < 1 {
		return nil, fmt.Errorf("linial: palette bound %d < 1", m0)
	}
	// The start colors below index the labels and identifiers, so their
	// lengths are checked first.
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("linial: %w", err)
	}
	p := &program{schedule: BuildSchedule(m0, t.MaxDegree()), colors: make([]int64, t.N())}
	for v := range p.colors {
		c := t.Label(v)
		if c < 0 {
			c = t.ID(v)
		}
		if c < 0 || c >= m0 {
			return nil, fmt.Errorf("linial: start color %d of vertex %d outside palette [0,%d)", c, v, m0)
		}
		p.colors[v] = c
	}
	stats, err := eng.Run(ctx, t, p, len(p.schedule)+2)
	if err != nil {
		return nil, fmt.Errorf("linial: %w", err)
	}
	palette := m0
	if len(p.schedule) > 0 {
		palette = p.schedule[len(p.schedule)-1].M
	}
	return &Result{Colors: p.colors, Palette: palette, Stats: stats}, nil
}

// FinalPalette returns the palette produced by a schedule starting at m0.
func FinalPalette(m0 int64, delta int) int64 {
	s := BuildSchedule(m0, delta)
	if len(s) == 0 {
		return m0
	}
	return s[len(s)-1].M
}

// program is the Linial reduction as one run-scoped word program (colors
// are single words, so every payload rides sim.Word). colors[v] is v's
// current color: its start color before round 0 and its result once it
// halts.
type program struct {
	schedule []Step
	colors   []int64
}

// Scratch implements sim.Factory: room for the d+1 coefficients of a
// vertex's own polynomial and of each of its at most Δ neighbors', at the
// widest step of the schedule.
func (p *program) Scratch(maxDeg int) int {
	k := 0
	for _, st := range p.schedule {
		k = max(k, int(st.D+1))
	}
	return k * (maxDeg + 1)
}

// StepWord implements sim.WordProgram. Round 0 broadcasts the starting
// color; round r ≥ 1 applies schedule[r-1] to the colors received in round
// r-1 and broadcasts the result, halting silently after the last step.
//
//distcolor:noalloc
func (p *program) StepWord(v, round int, in, scratch []sim.Word) (sim.Word, bool) {
	if round > 0 {
		p.colors[v] = applyStep(p.colors[v], in, scratch, p.schedule[round-1])
	}
	if round == len(p.schedule) {
		return sim.NoWord, true
	}
	return p.colors[v], false
}

// applyStep performs one polynomial reduction of color c at a single
// vertex, decomposing its own and its neighbors' colors into scratch,
// which holds at least (d+1)·(len(in)+1) words.
//
// The search tries x = 0 first, and p_c(0) = c mod q, so when no
// neighbor's color is ≡ c (mod q) the result is c mod q without any
// decomposition.
//
//distcolor:noalloc
func applyStep(c int64, in, scratch []sim.Word, st Step) int64 {
	d, q := st.D, st.Q
	at0 := c % q
	clash := false
	for _, w := range in {
		if w != sim.NoWord && w != c && w%q == at0 {
			clash = true
			break
		}
	}
	if !clash {
		return at0
	}
	k := int(d + 1)
	mine := scratch[:k:k]
	decomposeInto(mine, c, q)
	// Decompose each relevant neighbor color once, in port order.
	nbrs := scratch[k:]
	cnt := 0
	for _, w := range in {
		if w == sim.NoWord || w == c {
			// A silent port carries nothing; an equal color would mean an
			// improper input coloring (the caller's validation catches it).
			continue
		}
		decomposeInto(nbrs[cnt*k:cnt*k+k], w, q)
		cnt++
	}
	nbrs = nbrs[:cnt*k]
	for x := int64(0); x < q; x++ {
		val := evalPoly(mine, x, q)
		ok := true
		for off := 0; off < len(nbrs); off += k {
			if evalPoly(nbrs[off:off+k], x, q) == val {
				ok = false
				break
			}
		}
		if ok {
			return x*q + val
		}
	}
	// Unreachable when q > dΔ and the input coloring is proper.
	panicNoEvalPoint(q, d, cnt)
	return 0
}

// panicNoEvalPoint reports the invariant violation out of line: the
// Sprintf boxing lives in this cold unannotated helper, not on the
// noalloc hot path.
func panicNoEvalPoint(q, d int64, cnt int) {
	panic(fmt.Sprintf("linial: no evaluation point in F_%d for degree %d with %d neighbors", q, d, cnt))
}

// decomposeInto writes c in base q as len(coeffs) coefficients
// (little-endian) into the provided buffer.
func decomposeInto(coeffs []int64, c, q int64) {
	for i := range coeffs {
		coeffs[i] = c % q
		c /= q
	}
}

// decompose writes c in base q as k coefficients (little-endian). Kept as
// the allocation-per-call form for the reference path in tests.
func decompose(c, q, k int64) []int64 {
	coeffs := make([]int64, k)
	decomposeInto(coeffs, c, q)
	return coeffs
}

// evalPoly evaluates the polynomial with the given little-endian
// coefficients at x over F_q (Horner).
func evalPoly(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}
