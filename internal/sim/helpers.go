package sim

// SendAll writes the same message to every outgoing port.
func SendAll(out []Message, msg Message) {
	for p := range out {
		out[p] = msg
	}
}
