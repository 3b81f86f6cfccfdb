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
