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
// silence), so storage and delivery scale with vertices, not arcs. The
// representation is chosen once per program: when every machine an
// execution's Factory produces implements WordMachine, the engines run
// the word plane and call StepWord; one non-word machine falls the whole
// run back to the per-arc []Message plane, where WrapWord bridges StepWord
// through the any contract by broadcasting the returned word. Either way
// the observable execution — per-vertex results, rounds, message counts,
// bit accounting — is identical bit for bit; the equivalence matrix in
// plane_test.go pins this.

import (
	"fmt"
	"math"
)

// Word is a packed single-word message payload. It is an alias of int64 so
// algorithm code reads and writes colors without conversions.
type Word = int64

// NoWord is the Word sentinel for "no message" (the counterpart of a nil
// Message). Programs must not send it as a payload; every payload in this
// repository is a non-negative color or token, far from the sentinel.
const NoWord Word = math.MinInt64

// WordMachine is the broadcast counterpart of Machine. in[p] holds the word
// the neighbor on port p broadcast in the previous round, NoWord where the
// any plane would hold nil; the slice is engine-owned and valid only for
// the call. StepWord returns the word to broadcast on every port this
// round (NoWord: send nothing) and whether the vertex halts; a halting
// vertex's returned word is still delivered. Word machines are handed to
// engines through WrapWord, which also provides the Machine contract for
// the any plane (mixed programs, the reference engine in tests).
type WordMachine interface {
	StepWord(round int, in []Word) (out Word, halted bool)
}

// WordSizer is the packed counterpart of Sizer: a word machine that
// implements it reports the encoded size in bits of each word it emits.
// Words from machines that do not implement WordSizer are accounted as one
// machine word (64 bits), exactly like non-Sizer Messages.
type WordSizer interface {
	WordBits(w Word) int64
}

// WrapWord adapts a WordMachine to the Machine interface so a Factory can
// return it. The returned machine implements WordMachine (engines detect
// it and run the word plane) and Machine (the any plane steps it through a
// per-machine conversion buffer, allocated once on first use — this path
// only runs when a program mixes word and non-word machines, or under the
// reference engine kept in tests).
func WrapWord(wm WordMachine) Machine {
	if ws, ok := wm.(WordSizer); ok {
		return &sizedWordBridge{wordBridge: wordBridge{wm: wm}, ws: ws}
	}
	return &wordBridge{wm: wm}
}

type wordBridge struct {
	wm WordMachine
	in []Word
}

func (b *wordBridge) StepWord(round int, in []Word) (Word, bool) {
	return b.wm.StepWord(round, in)
}

// Step runs the word machine on the any plane: convert the inbox, step,
// broadcast the returned word. Emitted words become plain int64 Messages,
// so the default 64-bit accounting matches the word plane's.
func (b *wordBridge) Step(round int, in []Message, out []Message) bool {
	w, halted := b.wm.StepWord(round, b.convertIn(in))
	if w != NoWord {
		SendAll(out, w)
	}
	return halted
}

func (b *wordBridge) convertIn(in []Message) []Word {
	if b.in == nil {
		b.in = make([]Word, len(in))
	}
	for p, m := range in {
		switch v := m.(type) {
		case nil:
			b.in[p] = NoWord
		case int64:
			b.in[p] = v
		case sizedWord:
			b.in[p] = v.w
		default:
			// A neighbor sent something a word machine cannot read. As
			// with Int64s, this always indicates a protocol bug between
			// machines of the same algorithm; surface it at the point of
			// corruption instead of reading silence.
			panic(fmt.Sprintf("sim: word machine received non-word payload %T on port %d", m, p))
		}
	}
	return b.in
}

// sizedWordBridge is the WrapWord adapter for machines with custom bit
// accounting: on the any plane their words travel as sizedWord Messages so
// Stats.Bits matches the word plane exactly.
type sizedWordBridge struct {
	wordBridge
	ws WordSizer
}

func (b *sizedWordBridge) WordBits(w Word) int64 { return b.ws.WordBits(w) }

func (b *sizedWordBridge) Step(round int, in []Message, out []Message) bool {
	w, halted := b.wm.StepWord(round, b.convertIn(in))
	if w != NoWord {
		SendAll(out, sizedWord{w: w, bits: b.ws.WordBits(w)})
	}
	return halted
}

// sizedWord carries a word over the any plane with its WordSizer bit count.
type sizedWord struct {
	w    Word
	bits int64
}

// Bits implements Sizer.
func (s sizedWord) Bits() int64 { return s.bits }

// wordProgram detects the word plane: every machine of the run must
// implement WordMachine (vacuously false for empty topologies, where the
// choice is irrelevant). Returning the asserted slice lets the hot loop
// skip the per-step interface assertion.
func wordProgram(machines []Machine) ([]WordMachine, []WordSizer, bool) {
	if len(machines) == 0 {
		return nil, nil, false
	}
	// Verify before allocating: any-plane programs pass through here on
	// every run and must not pay for the fast path they are not taking.
	for _, m := range machines {
		if _, ok := m.(WordMachine); !ok {
			return nil, nil, false
		}
	}
	wms := make([]WordMachine, len(machines))
	szs := make([]WordSizer, len(machines))
	for v, m := range machines {
		wms[v] = m.(WordMachine)
		if s, ok := m.(WordSizer); ok {
			szs[v] = s
		}
	}
	return wms, szs, true
}
