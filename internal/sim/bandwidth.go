package sim

// CONGEST bandwidth accounting.
//
// The paper's model is LOCAL — message size is unbounded — but the natural
// hardening question for every algorithm here is how far it strays from
// CONGEST, where an edge carries O(log n) bits per round (Blikstad–Maus–
// de Vos study exactly this for deterministic edge coloring; see
// PAPERS.md). Stats already records total traffic (Bits) and the largest
// single message (MaxMessageBits); the Bandwidth accountant adds the
// *per-round* view: a histogram of each round's hottest-edge message size
// and a violation count against an optional cap. Violations are recorded,
// never enforced — the simulator stays a LOCAL machine, the accountant
// turns message-size honesty into a measurable, CI-gateable number
// (BENCH_simcore.json carries max_word_bits and congest_violations as
// deterministic columns).
//
// Granularity: one accounting event per executed round per execution. The
// engines already aggregate per-message sizes into per-round maxima for
// Stats, so the accountant costs a handful of atomic operations per round
// — nothing per message, nothing per vertex — and the round loop stays
// allocation-free (the zero-alloc regression tests run with an accountant
// attached).
//
// A single Bandwidth value may be shared by every execution of a composed
// algorithm (attach it with Instrumented, which rides the same Exec that
// algorithms thread to their sub-executions): counters are atomic, so
// concurrent sub-executions account safely, and the totals are
// deterministic because atomic addition commutes.

import "sync/atomic"

// bwBuckets is the fixed bucket count of the per-round bandwidth
// histogram: bucket e counts rounds whose hottest edge carried at most 2^e
// bits (e = 0..15), with one overflow bucket above 2^15. 32 Ki bits per
// message is far beyond anything a word-structured algorithm emits, so the
// overflow bucket is the "something is very wrong" bucket.
const bwBuckets = 17

// Bandwidth accounts per-round edge bandwidth across the executions it is
// attached to. The zero value is ready to use; a zero CapBits disables
// violation counting (the histogram still fills). All methods are safe for
// concurrent use.
type Bandwidth struct {
	// CapBits is the CONGEST cap in bits per edge per round; a round whose
	// largest message exceeds it records one violation. 0 means "account,
	// don't judge". CongestCapBits sizes it for a topology.
	CapBits int64

	rounds       atomic.Int64
	violations   atomic.Int64
	maxRoundBits atomic.Int64
	maxMsgBits   atomic.Int64
	hist         [bwBuckets]atomic.Int64
}

// roundDone records one executed round: totalBits is the round's total
// traffic, maxBits its largest single message (0 in a silent round, which
// is accounted as a round but not histogrammed). It returns 1 when the
// round violated the cap, else 0 — the engine adds the result into the
// execution's Stats so violations propagate through the Seq/Par algebra.
func (b *Bandwidth) roundDone(totalBits, maxBits int64) int64 {
	b.rounds.Add(1)
	updateMax(&b.maxRoundBits, totalBits)
	if maxBits <= 0 {
		return 0
	}
	updateMax(&b.maxMsgBits, maxBits)
	b.hist[bwBucket(maxBits)].Add(1)
	if b.CapBits > 0 && maxBits > b.CapBits {
		b.violations.Add(1)
		return 1
	}
	return 0
}

// updateMax raises *m to v if v is larger (CAS loop; contention is one
// update per round per execution, so it converges immediately).
func updateMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// bwBucket maps a positive bit count to its histogram bucket: the smallest
// e with bits <= 2^e, clamped to the overflow bucket.
func bwBucket(bits int64) int {
	e := 0
	for e < bwBuckets-1 && bits > int64(1)<<e {
		e++
	}
	return e
}

// Rounds reports the number of rounds accounted.
func (b *Bandwidth) Rounds() int64 { return b.rounds.Load() }

// Violations reports the number of rounds whose hottest edge exceeded
// CapBits.
func (b *Bandwidth) Violations() int64 { return b.violations.Load() }

// MaxRoundBits reports the largest per-round total traffic observed.
func (b *Bandwidth) MaxRoundBits() int64 { return b.maxRoundBits.Load() }

// MaxMessageBits reports the largest single message observed.
func (b *Bandwidth) MaxMessageBits() int64 { return b.maxMsgBits.Load() }

// HistBuckets snapshots the per-round hottest-edge histogram: slot e
// counts rounds with hottest-edge size in (2^(e-1), 2^e] bits, the last
// slot overflow beyond 2^15. (Snapshot allocation is fine: this is the
// scrape path, not the round loop.)
func (b *Bandwidth) HistBuckets() []int64 {
	out := make([]int64, bwBuckets)
	for i := range b.hist {
		out[i] = b.hist[i].Load()
	}
	return out
}

// BucketBound reports the upper bound in bits of histogram slot e (the
// last slot has no bound and reports -1).
func BucketBound(e int) int64 {
	if e < 0 || e >= bwBuckets-1 {
		return -1
	}
	return int64(1) << e
}

// CongestCapBits is the CONGEST bandwidth cap this repository uses for an
// n-vertex network: 2·(⌊log2 n⌋+1) bits per edge per round, twice the bit
// length of n (so 10 bits at n = 16 and 22 at n = 1024), floored at 8 so
// toy topologies are not judged against a 2-bit cap. The constant 2 is the
// usual "a message is O(1) identifiers/colors" allowance.
func CongestCapBits(n int) int64 {
	log := int64(1)
	for v := n; v > 1; v >>= 1 {
		log++
	}
	c := 2 * log
	if c < 8 {
		c = 8
	}
	return c
}
