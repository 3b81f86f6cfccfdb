package sim

// SendAll writes the same message to every outgoing port.
func SendAll(out []Message, msg Message) {
	for p := range out {
		out[p] = msg
	}
}

// FuncMachine adapts a step function to the Machine interface, for small
// inline programs (mostly in tests).
type FuncMachine func(round int, in []Message, out []Message) bool

// Step implements Machine.
func (f FuncMachine) Step(round int, in []Message, out []Message) bool {
	return f(round, in, out)
}
