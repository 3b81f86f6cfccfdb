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
// The field arithmetic is Barrett reduction by a reciprocal each schedule
// step sets up once: the x = 0 scan, the base-q decomposition and each
// Horner evaluation reduce by a multiply-high and one conditional
// subtraction, and an evaluation reduces once, at its end, when
// q^(d+1) < 2⁶⁴ bounds its unreduced sum.
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
	"math"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/util"
)

// Step is one reduction round: colors in [m] are mapped into [q²] using
// degree-≤ d polynomials over F_q.
type Step struct {
	D int64 // polynomial degree bound
	Q int64 // field size (prime, ≥ dΔ+1, with q^(d+1) ≥ m)
	M int64 // resulting palette size q²

	r uint64 // ⌊(2⁶⁴−1)/Q⌋, the Barrett reciprocal of Q, set up by newStep
}

// maxQ guards 64-bit overflow: q² and x·q+val must stay within int64, and
// q < 2³² keeps acc·x + a < 2⁶⁴ in a Horner step that reduces.
const maxQ = 3_000_000_000

// newStep returns the step of degree d over F_q.
func newStep(d, q int64) Step {
	return Step{D: d, Q: q, M: q * q, r: math.MaxUint64 / uint64(q)}
}

// field returns the step's F_q arithmetic.
func (st Step) field() field { return field{q: uint64(st.Q), r: st.r} }

// field is F_q's arithmetic by Barrett reduction: with r = ⌊(2⁶⁴−1)/q⌋,
// the estimate ⌊x·r/2⁶⁴⌋ is ⌊x/q⌋ or one less for any x < 2⁶⁴, and one
// conditional subtraction of q finishes the remainder.
type field struct{ q, r uint64 }

// divmod returns ⌊x/q⌋ and x mod q.
//
//distcolor:noalloc
func (f field) divmod(x uint64) (quo, rem uint64) {
	quo, _ = bits.Mul64(x, f.r)
	rem = x - quo*f.q
	if rem >= f.q {
		quo++
		rem -= f.q
	}
	return quo, rem
}

// mod returns x mod q.
//
//distcolor:noalloc
func (f field) mod(x uint64) uint64 {
	_, rem := f.divmod(x)
	return rem
}

// decompose writes c in base q as len(coeffs) coefficients
// (little-endian) into coeffs.
//
//distcolor:noalloc
func (f field) decompose(coeffs []sim.Word, c int64) {
	x := uint64(c)
	for i := range coeffs {
		var digit uint64
		x, digit = f.divmod(x)
		coeffs[i] = sim.Word(digit)
	}
}

// decomposeAll decomposes every neighbor color of in that carries a word
// other than c into k coefficients each, in port order, from the start
// of buf, and returns the coefficients written. A silent port carries
// nothing; an equal color would mean an improper input coloring (the
// caller's validation catches it).
//
//distcolor:noalloc
func (f field) decomposeAll(buf, in []sim.Word, c int64, k int) []sim.Word {
	n := 0
	for _, w := range in {
		if w != sim.NoWord && w != c {
			f.decompose(buf[n:n+k], w)
			n += k
		}
	}
	return buf[:n]
}

// avoids reports whether no polynomial of nbrs, k coefficients each,
// takes the value val at x.
//
//distcolor:noalloc
func (f field) avoids(nbrs []sim.Word, k int, x, val uint64, lazy bool) bool {
	for off := 0; off < len(nbrs); off += k {
		if f.eval(nbrs[off:off+k], x, lazy) == val {
			return false
		}
	}
	return true
}

// lazy reports whether q^k < 2⁶⁴. A Horner sum Σ aᵢxⁱ of k coefficients
// aᵢ < q at x < q is then at most q^k − 1, so it may run unreduced.
//
//distcolor:noalloc
func (f field) lazy(k int64) bool {
	p := uint64(1)
	for range k {
		hi, lo := bits.Mul64(p, f.q)
		if hi != 0 {
			return false
		}
		p = lo
	}
	return true
}

// eval evaluates the polynomial with the given little-endian
// coefficients at x < q over F_q (Horner): unreduced and reduced once at
// the end when lazy, reducing at each step otherwise (acc·x + a < 2⁶⁴
// there, as q < 2³²).
//
//distcolor:noalloc
func (f field) eval(coeffs []sim.Word, x uint64, lazy bool) uint64 {
	var acc uint64
	if lazy {
		for i := len(coeffs) - 1; i >= 0; i-- {
			acc = acc*x + uint64(coeffs[i])
		}
		return f.mod(acc)
	}
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.mod(acc*x + uint64(coeffs[i]))
	}
	return acc
}

// BuildSchedule computes the deterministic reduction schedule from an
// initial palette m0 and maximum degree delta. Every vertex derives this
// same schedule locally from global knowledge (m₀ and Δ), so no coordination
// is needed. The schedule is empty when no step shrinks the palette. It is
// derived twice, to be allocated once at its length.
func BuildSchedule(m0 int64, delta int) []Step {
	delta = max(delta, 1)
	n := 0
	for m := m0; ; n++ {
		st, ok := bestStep(m, delta)
		if !ok {
			break
		}
		m = st.M
	}
	steps := make([]Step, n)
	for i, m := 0, m0; i < n; i++ {
		steps[i], _ = bestStep(m, delta)
		m = steps[i].M
	}
	return steps
}

// bestStep finds the degree d minimizing the resulting palette q², and
// reports false when no step shrinks the palette m.
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
		if !found || q*q < best.M {
			best = newStep(d, q)
			found = true
		}
		// Larger d can no longer help once the field size is dominated by
		// the dΔ term rather than the root term.
		if root <= d*int64(delta)+1 {
			break
		}
	}
	return best, found && best.M < m
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
// decomposition; otherwise x = 0 is known to clash, and the search starts
// at x = 1. Every reduction mod q is the step's Barrett reduction.
//
//distcolor:noalloc
func applyStep(c int64, in, scratch []sim.Word, st Step) int64 {
	f := st.field()
	at0 := f.mod(uint64(c))
	clash := false
	for _, w := range in {
		if w != sim.NoWord && w != c && f.mod(uint64(w)) == at0 {
			clash = true
			break
		}
	}
	if !clash {
		return int64(at0)
	}
	k := int(st.D + 1)
	mine := scratch[:k:k]
	f.decompose(mine, c)
	nbrs := f.decomposeAll(scratch[k:], in, c, k)
	lazy := f.lazy(st.D + 1)
	for x := uint64(1); x < f.q; x++ {
		if val := f.eval(mine, x, lazy); f.avoids(nbrs, k, x, val, lazy) {
			return int64(x*f.q + val)
		}
	}
	// Unreachable when q > dΔ and the input coloring is proper.
	panicNoEvalPoint(st.Q, st.D, len(nbrs)/k)
	return 0
}

// panicNoEvalPoint reports the invariant violation out of line: the
// Sprintf boxing lives in this cold unannotated helper, not on the
// noalloc hot path.
func panicNoEvalPoint(q, d int64, cnt int) {
	panic(fmt.Sprintf("linial: no evaluation point in F_%d for degree %d with %d neighbors", q, d, cnt))
}
