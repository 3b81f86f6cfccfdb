package sim

// SendAll writes the same message to every outgoing port.
func SendAll(out []Message, msg Message) {
	for p := range out {
		out[p] = msg
	}
}

// Int64s extracts int64 payloads from an inbox; slots with nil messages are
// reported as the provided missing value. It panics if a non-nil message is
// not an int64, which always indicates a protocol bug between machines of
// the same algorithm.
func Int64s(in []Message, missing int64) []int64 {
	vals := make([]int64, len(in))
	for p, m := range in {
		if m == nil {
			vals[p] = missing
			continue
		}
		vals[p] = m.(int64)
	}
	return vals
}

// FuncMachine adapts a step function to the Machine interface, for small
// inline programs (mostly in tests).
type FuncMachine func(round int, in []Message, out []Message) bool

// Step implements Machine.
func (f FuncMachine) Step(round int, in []Message, out []Message) bool {
	return f(round, in, out)
}

// WordFunc adapts a step function to the WordMachine interface; wrap it
// with WrapWord to obtain the Machine a Factory must return:
//
//	return sim.WrapWord(sim.WordFunc(func(round int, in []sim.Word) (sim.Word, bool) { ... }))
type WordFunc func(round int, in []Word) (Word, bool)

// StepWord implements WordMachine.
func (f WordFunc) StepWord(round int, in []Word) (Word, bool) {
	return f(round, in)
}
