package linial

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/util"
	"repro/internal/verify"
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

func TestScheduleShrinks(t *testing.T) {
	steps := BuildSchedule(1_000_000, 10)
	if len(steps) == 0 {
		t.Fatal("expected at least one step")
	}
	m := int64(1_000_000)
	for i, s := range steps {
		if s.Q <= s.D*10 {
			t.Fatalf("step %d: field size %d too small for dΔ=%d", i, s.Q, s.D*10)
		}
		if s.M >= m {
			t.Fatalf("step %d does not shrink palette: %d >= %d", i, s.M, m)
		}
		if !util.IsPrime(int(s.Q)) {
			t.Fatalf("step %d: q=%d not prime", i, s.Q)
		}
		m = s.M
	}
}

func TestScheduleStepsAreLogStar(t *testing.T) {
	// Number of steps should be small (log*-ish), not logarithmic: even for
	// an enormous starting palette it must stay in single digits.
	steps := BuildSchedule(1<<60, 8)
	if len(steps) > 10 {
		t.Fatalf("schedule unexpectedly long: %d steps", len(steps))
	}
}

func TestScheduleFixpointPalette(t *testing.T) {
	// Final palette must be O(Δ² log² Δ): check a generous concrete bound
	// Δ²·(log₂Δ+4)² for a range of Δ.
	for _, d := range []int{1, 2, 4, 8, 16, 64, 256} {
		final := FinalPalette(1<<40, d)
		lg := int64(util.Log2Ceil(d+1) + 4)
		bound := int64(d) * int64(d) * lg * lg
		if final > bound {
			t.Errorf("Δ=%d: final palette %d exceeds Δ²log²Δ bound %d", d, final, bound)
		}
	}
}

func TestReduceProducesProperColoring(t *testing.T) {
	g := rg(5, 120, 0.08)
	topo := sim.NewTopology(g)
	res, err := Reduce(context.Background(), sim.Sequential, topo, int64(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != len(BuildSchedule(int64(g.N()), g.MaxDegree()))+1 {
		t.Fatalf("rounds %d != schedule+1", res.Stats.Rounds)
	}
}

func TestReduceWithSeedLabels(t *testing.T) {
	g := rg(6, 100, 0.1)
	// Seed: a proper coloring with a huge palette (IDs spread out).
	seed := make([]int64, g.N())
	for v := range seed {
		seed[v] = int64(v) * 1_000_003
	}
	m0 := int64(g.N()) * 1_000_003
	topo := &sim.Topology{G: g, Labels: seed}
	res, err := Reduce(context.Background(), sim.Sequential, topo, m0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
	if res.Palette >= m0 {
		t.Fatal("palette did not shrink")
	}
}

func TestReduceSeedShorterThanIDs(t *testing.T) {
	// §3 trick: starting from a small proper seed coloring takes fewer
	// steps than starting from raw IDs.
	g := rg(8, 300, 0.05)
	d := g.MaxDegree()
	small := FinalPalette(int64(g.N()), d)
	fromIDs := len(BuildSchedule(int64(g.N()), d))
	fromSeed := len(BuildSchedule(small, d))
	if fromSeed > fromIDs {
		t.Fatalf("seeded schedule longer: %d > %d", fromSeed, fromIDs)
	}
}

func TestReduceOnEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	res, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.VertexColoring(g, res.Colors, res.Palette); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSingleColorSeed(t *testing.T) {
	// Palette of size 1 on an edgeless graph: schedule empty, nothing to do.
	g := graph.NewBuilder(3).MustBuild()
	topo := &sim.Topology{G: g, Labels: []int64{0, 0, 0}}
	res, err := Reduce(context.Background(), sim.Sequential, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette != 1 {
		t.Fatalf("palette %d", res.Palette)
	}
}

func TestReduceRejectsBadPalette(t *testing.T) {
	g := graph.Path(3)
	if _, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), 0); err == nil {
		t.Fatal("expected palette error")
	}
}

// TestReduceRejectsStartColorsOutsidePalette: a start color (seed label,
// or identifier without labels) outside [0, m0) is an error, not a result
// that silently keeps it or truncates it to fit the first step's field.
func TestReduceRejectsStartColorsOutsidePalette(t *testing.T) {
	g := graph.Path(3)
	for _, c := range []struct {
		name string
		topo *sim.Topology
		m0   int64
	}{
		{"label-above", &sim.Topology{G: g, Labels: []int64{0, 5, 0}}, 4},
		{"label-beyond-field", &sim.Topology{G: g, Labels: []int64{0, 1 << 40, 0}}, 4},
		{"id-above", sim.NewTopology(g), 2},
	} {
		if res, err := Reduce(context.Background(), sim.Sequential, c.topo, c.m0); err == nil {
			t.Errorf("%s: accepted, returned colors %v palette %d", c.name, res.Colors, res.Palette)
		}
	}
}

func TestReduceQuickOverFamilies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := rg(seed, n, 0.15)
		res, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), int64(n))
		if err != nil {
			return false
		}
		return verify.VertexColoring(g, res.Colors, res.Palette) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceEnginesAgree runs on 600 vertices, above two shards' worth
// (sim's step grain is 256), so the parallel engine steps several shards
// concurrently, each with its own scratch, wherever there are CPUs for
// them. Spread-out seed labels give a schedule of several steps (from
// the identifiers, m0 = 600 leaves nothing to reduce at this Δ).
func TestReduceEnginesAgree(t *testing.T) {
	g := rg(13, 600, 0.015)
	seed := make([]int64, g.N())
	for v := range seed {
		seed[v] = int64(v) * 1_000_003
	}
	topo := &sim.Topology{G: g, Labels: seed}
	m0 := int64(g.N()) * 1_000_003
	if len(BuildSchedule(m0, g.MaxDegree())) < 2 {
		t.Fatal("schedule too short to exercise the scratch")
	}
	want, err := Reduce(context.Background(), sim.Sequential, topo, m0)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.ReverseSequential, sim.Parallel} {
		got, err := Reduce(context.Background(), eng, topo, m0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats || got.Palette != want.Palette {
			t.Fatalf("engine %d disagrees on stats/palette", eng)
		}
		for v := range want.Colors {
			if got.Colors[v] != want.Colors[v] {
				t.Fatalf("engine %d disagrees at vertex %d", eng, v)
			}
		}
	}
}

// refApplyStep is the unoptimized reference of one polynomial reduction
// at a single vertex — the pre-word-plane implementation kept as the
// executable specification, with hardware division and the search from
// x = 0. The production applyStep performs the same computation in a
// shard's scratch slab with the step's Barrett arithmetic;
// TestApplyStepMatchesReference and FuzzLinialStep pin the equivalence.
func refApplyStep(c int64, nbrColors []int64, st Step) int64 {
	d, q := st.D, st.Q
	mine := decompose(c, q, d+1)
	var nbrs [][]int64
	for _, nc := range nbrColors {
		if nc < 0 || nc == c {
			continue
		}
		nbrs = append(nbrs, decompose(nc, q, d+1))
	}
	for x := int64(0); x < q; x++ {
		val := evalPoly(mine, x, q)
		ok := true
		for _, nb := range nbrs {
			if evalPoly(nb, x, q) == val {
				ok = false
				break
			}
		}
		if ok {
			return x*q + val
		}
	}
	panic("linial_test: no evaluation point")
}

// decompose returns c in base q as k coefficients (little-endian).
func decompose(c, q, k int64) []int64 {
	coeffs := make([]int64, k)
	for i := range coeffs {
		coeffs[i] = c % q
		c /= q
	}
	return coeffs
}

// evalPoly evaluates the polynomial with the given little-endian
// coefficients at x over F_q (Horner), reducing at every step.
func evalPoly(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}

// stepCase is a step under test, with the input palette it reduces
// (q^(d+1), or MaxInt64 where that overflows int64) and the largest
// degree its field serves (q ≥ dΔ+1), capped at 6.
type stepCase struct {
	st      Step
	palette int64
	maxDeg  int
}

func newStepCase(d, q int64) stepCase {
	palette := int64(1)
	for range d + 1 {
		if palette > math.MaxInt64/q {
			palette = math.MaxInt64
			break
		}
		palette *= q
	}
	return stepCase{st: newStep(d, q), palette: palette, maxDeg: min(6, int((q-1)/d))}
}

// prevPrime returns the largest prime ≤ n.
func prevPrime(n int64) int64 {
	for !util.IsPrime(int(n)) {
		n--
	}
	return n
}

// lazyEdge is the largest q with q³ < 2⁶⁴: a degree-2 step over the
// largest prime up to it evaluates unreduced, one over the next prime
// reduces at every Horner step.
const lazyEdge = 2_642_245

// TestApplyStepMatchesReference drives the production scratch-slab
// applyStep against the allocating reference on randomized colors,
// degrees, and inbox patterns (including silent NoWord ports, improper
// equal-color slots, and words ≡ c (mod q)): the chosen colors must be
// identical, and one scratch slab reused across cases, as a shard reuses
// it across the vertices it steps, must not leak state between them. The
// steps span the field's edges: q = 2 and q = 3, the widest degree
// bestStep considers (62), degree-2 steps on either side of q³ = 2⁶⁴,
// and a q next to maxQ with q² < 2⁶⁴ < q³, so both Horner paths run;
// colors reach each step's input palette − 1. Every step takes both of
// applyStep's paths: the x = 0 shortcut, and the full search when a
// neighbor's color is ≡ c (mod q).
func TestApplyStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []stepCase{
		newStepCase(1, 11), newStepCase(2, 13), newStepCase(3, 31), newStepCase(5, 67),
		newStepCase(1, 2), newStepCase(1, 3), newStepCase(2, 3),
		newStepCase(62, 67), newStepCase(62, int64(util.NextPrime(62*6+1))),
		newStepCase(2, prevPrime(lazyEdge)), newStepCase(2, int64(util.NextPrime(lazyEdge+1))),
		newStepCase(1, prevPrime(maxQ)), newStepCase(2, prevPrime(maxQ)),
	}
	for _, c := range cases {
		if got, want := c.st.field().lazy(c.st.D+1), fitsUint64(c.st.Q, c.st.D+1); got != want {
			t.Fatalf("step %+v: lazy = %v, want %v", c.st, got, want)
		}
	}
	scratch := make([]sim.Word, 63*7) // widest step (d+1 = 63) × (max degree 6 + 1)
	shortcut := make([]int, len(cases))
	searched := make([]int, len(cases))
	for i := 0; i < 13000; i++ {
		ci := rng.Intn(len(cases))
		sc := cases[ci]
		st, q := sc.st, sc.st.Q
		c := rng.Int63n(sc.palette)
		if rng.Intn(8) == 0 {
			c = sc.palette - 1
		}
		deg := rng.Intn(sc.maxDeg + 1)
		in := make([]sim.Word, deg)
		ref := make([]int64, deg)
		for p := 0; p < deg; p++ {
			var nc int64
			switch rng.Intn(5) {
			case 0:
				in[p], ref[p] = sim.NoWord, -1 // silent port
				continue
			case 1:
				nc = c // improper duplicate, skipped by both
			case 2:
				nc = c%q + q*rng.Int63n((sc.palette-1-c%q)/q+1) // ≡ c (mod q)
			default:
				nc = rng.Int63n(sc.palette)
			}
			in[p], ref[p] = nc, nc
		}
		if got := applyStep(c, in, scratch, st); got != refApplyStep(c, ref, st) {
			t.Fatalf("case %d: applyStep = %d, reference = %d (c=%d step=%+v in=%v)", i, got, refApplyStep(c, ref, st), c, st, in)
		}
		full := false
		for _, nc := range ref {
			full = full || nc >= 0 && nc != c && nc%q == c%q
		}
		if full {
			searched[ci]++
		} else {
			shortcut[ci]++
		}
	}
	for ci, c := range cases {
		if shortcut[ci] < 20 || searched[ci] < 20 {
			t.Errorf("step %+v: %d shortcut and %d full searches: a path went unexercised", c.st, shortcut[ci], searched[ci])
		}
	}
}

func TestApplyStepDeterministicAndProper(t *testing.T) {
	// Direct unit test of the polynomial step on a small clique: all
	// distinct colors must map to distinct new colors when applied with each
	// vertex seeing the others as neighbors.
	st := newStep(2, 11)
	colors := []int64{5, 17, 100, 1000, 42}
	newColors := make(map[int64]bool)
	for i, c := range colors {
		var nbrs []int64
		for j, o := range colors {
			if j != i {
				nbrs = append(nbrs, o)
			}
		}
		nc := refApplyStep(c, nbrs, st)
		if nc < 0 || nc >= st.M {
			t.Fatalf("new color %d out of range", nc)
		}
		if newColors[nc] {
			t.Fatalf("collision on new color %d", nc)
		}
		newColors[nc] = true
	}
}

// TestReduceAllocsIndependentOfN pins "no per-vertex objects": a whole
// Reduce run allocates the same number of heap objects on 1k and on 8k
// vertices — the program, its color slab, the engine's slabs and the
// shard's window and scratch, each one object whatever its length. The
// same Δ and m0 give both runs the same schedule.
func TestReduceAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		g, err := gen.NearRegular(n, 8, 2017)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			if _, err := Reduce(context.Background(), sim.Sequential, sim.NewTopology(g), 8000); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Reduce allocates %.1f objects on 1k vertices and %.1f on 8k: some allocation is per vertex", small, large)
	}
}

func TestPolyHelpers(t *testing.T) {
	// decompose/eval round trip: value of polynomial at x=q is... check
	// decompose base-q digits recompose to c.
	q := int64(13)
	for _, c := range []int64{0, 1, 12, 13, 168, 2196} {
		co := decompose(c, q, 4)
		var back int64
		mult := int64(1)
		for _, d := range co {
			back += d * mult
			mult *= q
		}
		if back != c {
			t.Fatalf("decompose(%d) round trip gave %d", c, back)
		}
	}
	// evalPoly: p(x) = 3 + 2x + x² at x=5 mod 7 = (3+10+25) mod 7 = 38 mod 7 = 3.
	if got := evalPoly([]int64{3, 2, 1}, 5, 7); got != 3 {
		t.Fatalf("evalPoly = %d, want 3", got)
	}
}

// TestFieldArithmetic checks the Barrett arithmetic against hardware
// division: divmod on x across the whole uint64 range, including the
// values next to 0, to multiples of q and to 2⁶⁴, for fields from q = 2
// up to the largest prime below maxQ; decompose against the reference
// decompose; and eval on both Horner paths against evalPoly.
func TestFieldArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range []int64{2, 3, 5, 251, 65537, prevPrime(lazyEdge), int64(util.NextPrime(lazyEdge + 1)), prevPrime(maxQ)} {
		uq := uint64(q)
		xs := []uint64{0, 1, uq - 1, uq, uq + 1, 2*uq - 1, uq * uq, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 / uq * uq, math.MaxUint64/uq*uq - 1, 1 << 63}
		for range 2000 {
			xs = append(xs, rng.Uint64(), rng.Uint64()>>rng.Intn(64))
		}
		for _, d := range []int64{1, 2, 5, 62} {
			st := newStep(d, q)
			f := st.field()
			if d == 1 {
				for _, x := range xs {
					if quo, rem := f.divmod(x); quo != x/uq || rem != x%uq {
						t.Fatalf("q=%d: divmod(%d) = (%d, %d), want (%d, %d)", q, x, quo, rem, x/uq, x%uq)
					}
				}
			}
			k := d + 1
			lazy := f.lazy(k)
			if lazy != fitsUint64(q, k) {
				t.Fatalf("q=%d k=%d: lazy = %v", q, k, lazy)
			}
			coeffs := make([]sim.Word, k)
			for range 200 {
				c := rng.Int63()
				f.decompose(coeffs, c)
				want := decompose(c, q, k)
				for i := range coeffs {
					if coeffs[i] != want[i] {
						t.Fatalf("q=%d d=%d: decompose(%d) = %v, want %v", q, d, c, coeffs, want)
					}
				}
				for i := range coeffs {
					coeffs[i] = rng.Int63n(q)
					want[i] = coeffs[i]
				}
				x := 1 + rng.Int63n(q-1)
				if rng.Intn(4) == 0 {
					x = q - 1
					for i := range coeffs {
						coeffs[i], want[i] = q-1, q-1
					}
				}
				for _, l := range []bool{lazy, false} {
					if got := f.eval(coeffs, uint64(x), l); got != uint64(evalPoly(want, x, q)) {
						t.Fatalf("q=%d d=%d lazy=%v: eval(%v, %d) = %d, want %d", q, d, l, coeffs, x, got, evalPoly(want, x, q))
					}
				}
			}
		}
	}
}

// fitsUint64 reports whether q^k < 2⁶⁴, by big-integer arithmetic.
func fitsUint64(q, k int64) bool {
	return new(big.Int).Exp(big.NewInt(q), big.NewInt(k), nil).BitLen() <= 64
}

// FuzzLinialStep checks applyStep against refApplyStep on one step of the
// schedule BuildSchedule derives from a fuzzed m0 and Δ, at a fuzzed color
// of the step's input palette and an inbox of at most Δ words, one per
// byte of in: by the byte's low two bits a silent port, a copy of c, a
// word ≡ c (mod q), which forces the search past x = 0, or any color of
// the palette.
func FuzzLinialStep(f *testing.F) {
	f.Add(int64(1_000_000), uint16(10), uint8(0), int64(123_456), []byte{2, 3, 6, 0, 1, 10, 14})
	f.Add(int64(400_000_001), uint16(14), uint8(1), int64(840), []byte{2, 6, 10, 14, 18, 22, 26})
	f.Add(int64(math.MaxInt64), uint16(1), uint8(3), int64(-1), []byte{2})
	f.Add(int64(1<<40), uint16(300), uint8(0), int64(77), []byte{3, 7, 2, 1, 0})
	f.Fuzz(func(t *testing.T, m0 int64, delta uint16, pick uint8, c int64, in []byte) {
		if m0 < 2 {
			return
		}
		maxDeg := 1 + int(delta)%512
		schedule := BuildSchedule(m0, maxDeg)
		if len(schedule) == 0 {
			return
		}
		i := int(pick) % len(schedule)
		st, palette := schedule[i], m0
		if i > 0 {
			palette = schedule[i-1].M
		}
		q := st.Q
		c &= math.MaxInt64
		c %= palette
		if len(in) > maxDeg {
			in = in[:maxDeg]
		}
		words := make([]sim.Word, len(in))
		ref := make([]int64, len(in))
		h := uint64(c) ^ uint64(palette)<<1
		for p, b := range in {
			h = h*6364136223846793005 + 1442695040888963407 + uint64(b)
			var w int64
			switch b & 3 {
			case 0:
				words[p], ref[p] = sim.NoWord, -1
				continue
			case 1:
				w = c
			case 2:
				w = c%q + q*int64((h>>1)%uint64((palette-1-c%q)/q+1))
			default:
				w = int64((h >> 1) % uint64(palette))
			}
			words[p], ref[p] = w, w
		}
		scratch := make([]sim.Word, int(st.D+1)*(len(in)+1))
		if got, want := applyStep(c, words, scratch, st), refApplyStep(c, ref, st); got != want {
			t.Fatalf("step %d %+v of m0=%d Δ=%d: applyStep(%d, %v) = %d, reference %d", i, st, m0, maxDeg, c, words, got, want)
		}
	})
}
