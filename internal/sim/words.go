package sim

// The word message plane: the engine's boxing-free broadcast fast path.
//
// `Message` is `any`, so every payload a vertex stores into its outbox is
// converted to an interface value — and any int64 outside the runtime's
// small-integer cache escapes to the heap. Most algorithms of this
// repository are broadcast programs that exchange single machine words
// (colors, tokens, field elements): in every round each vertex sends one
// word to all its neighbors, or stays silent. The word plane is laid out
// for exactly that: one Word slot per vertex and round (NoWord for
// silence), so storage and delivery scale with vertices, not arcs. A run
// takes it when its Factory is a WordProgram, the broadcast counterpart
// of PortProgram (sim.go): one value that steps every vertex of the run
// over state slabs it owns, so a run builds no object per vertex. Its
// observable execution — per-vertex results, rounds, message counts, bit
// accounting — is that of the same program sending its word port by port
// as a PortProgram; the equivalence matrices in plane_test.go and
// words_test.go pin this against the reference engine, which steps both
// program kinds one vertex at a time.

import "math"

// Word is a packed single-word message payload. It is an alias of int64 so
// algorithm code reads and writes colors without conversions.
type Word = int64

// NoWord is the Word sentinel for "no message" (the counterpart of a nil
// Message). Programs must not send it as a payload; every payload in this
// repository is a non-negative color or token, far from the sentinel.
const NoWord Word = math.MinInt64

// WordProgram is a run-scoped broadcast program: one value steps every
// vertex of a run on the word plane.
//
// StepWord executes one round at vertex v. in[p] holds the word the
// neighbor on port p broadcast in the previous round, NoWord for silence
// (and on round 0); len(in) is v's degree. scratch is the stepping
// shard's scratch slab, Scratch(Δ) words long; it is shared by every
// vertex the shard steps, so its contents are undefined on entry. Both
// slices are engine-owned and valid only for the call. StepWord returns
// the word to broadcast on every port this round (NoWord: send nothing)
// and whether v halts; a halting vertex's returned word is still
// delivered, and a halted vertex is never stepped again.
//
// The slot-v rule: StepWord(v, …) reads and writes only index v of the
// program's state slabs. Shards step concurrently on the parallel engine
// and in either order on the sequential ones, so everything v learns about
// its neighbors must arrive in `in`; the Reverse and Parallel rows of the
// equivalence matrices catch a program that breaks the rule.
type WordProgram interface {
	Factory
	StepWord(v, round int, in, scratch []Word) (out Word, halted bool)
}

// WordSizer is the packed counterpart of Sizer: a WordProgram that
// implements it reports the encoded size in bits of each word its vertices
// emit. Words of programs that do not implement WordSizer are accounted as
// one machine word (64 bits), exactly like non-Sizer Messages.
type WordSizer interface {
	WordBits(w Word) int64
}

// ActiveSet is an optional method of a WordProgram or a PortProgram whose
// rounds leave most vertices idle. The engine calls Active once per round,
// before any step, and steps only the running vertices it names: vs, in
// strictly ascending order, or every running vertex when all is true (vs
// is then ignored). On the port plane a round that is not all also steps
// every running vertex that the previous round's unicasts reached, named
// or not, so a program need not name the receivers of its Sends. An idle
// vertex is not stepped and keeps its state. On the word plane it keeps
// broadcasting the word it last returned (silence before its first step);
// on the port plane it sends nothing and ignores any broadcast that
// reached it. A program may leave a vertex out of a round only when
// stepping it would change none of its state and return that same word,
// or on the port plane send nothing and not halt, so the run is the one of
// stepping every vertex: the reference executor, which ignores Active,
// pins this. The engine reads vs until the round ends; the program may
// reuse its backing array in later rounds. A word program with an
// ActiveSet that implements WordSizer must report sizes in [0, 64] bits.
type ActiveSet interface {
	Active(round int) (vs []int32, all bool)
}

// tally holds the running sums of an ActiveSet program's traffic: the
// messages and bits its broadcasting vertices send per round, and how
// many of them send a word of each size, 0 to 64 bits, so the round's
// largest message is known again once the vertex that sent it changes its
// word or halts.
type tally struct {
	msgs, bits int64
	sizes      [65]int64
}

// add counts one vertex's traffic st sign times (+1 or −1). A word size
// outside [0, 64] is outside the ActiveSet contract and panics on the
// bucket index.
//
//distcolor:noalloc
func (t *tally) add(st sendStats, sign int64) {
	if st.msgs == 0 {
		return
	}
	t.msgs += sign * st.msgs
	t.bits += sign * st.bits
	t.sizes[st.maxBits] += sign
}

// merge adds the changes d to t and clears d.
//
//distcolor:noalloc
func (t *tally) merge(d *tally) {
	t.msgs += d.msgs
	t.bits += d.bits
	for b, k := range d.sizes {
		t.sizes[b] += k
	}
	*d = tally{}
}

// sent is the traffic of one round of the counted vertices.
func (t *tally) sent() sendStats {
	st := sendStats{msgs: t.msgs, bits: t.bits}
	for b := len(t.sizes) - 1; b >= 0; b-- {
		if t.sizes[b] > 0 {
			st.maxBits = int64(b)
			break
		}
	}
	return st
}
