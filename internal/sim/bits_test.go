package sim

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// sizedMsg is a test payload with an explicit bit size.
type sizedMsg struct{ n int64 }

func (s sizedMsg) Bits() int64 { return s.n }

func TestBitAccounting(t *testing.T) {
	// Path 0-1-2: vertex 0 sends a 128-bit message, vertex 2 a plain int64
	// (64 bits), vertex 1 nothing; everyone halts after one exchange.
	g := graph.Path(3)
	var f PortFunc = func(v, round int, in []Mail, out *Outbox) bool {
		if round == 0 {
			switch v {
			case 0:
				out.SendAll(sizedMsg{n: 128})
			case 2:
				out.SendAll(int64(7))
			}
			return false
		}
		return true
	}
	stats, err := Sequential.Run(context.Background(), NewTopology(g), f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages = %d, want 2", stats.Messages)
	}
	if stats.Bits != 128+64 {
		t.Fatalf("bits = %d, want 192", stats.Bits)
	}
	if stats.MaxMessageBits != 128 {
		t.Fatalf("max message bits = %d, want 128", stats.MaxMessageBits)
	}
}

func TestBitAccountingCombinators(t *testing.T) {
	a := Stats{Rounds: 2, Messages: 10, Bits: 640, MaxMessageBits: 64, CongestViolations: 1}
	b := Stats{Rounds: 5, Messages: 1, Bits: 999, MaxMessageBits: 999, CongestViolations: 4}
	seq := a.Seq(b)
	if seq.Bits != 1639 || seq.MaxMessageBits != 999 || seq.Rounds != 7 || seq.CongestViolations != 5 {
		t.Fatalf("Seq wrong: %+v", seq)
	}
	par := a.Par(b)
	if par.Bits != 1639 || par.MaxMessageBits != 999 || par.Rounds != 5 || par.CongestViolations != 5 {
		t.Fatalf("Par wrong: %+v", par)
	}
}

func TestBitAccountingEnginesAgree(t *testing.T) {
	g := graph.Complete(9)
	var f PortFunc = func(v, round int, in []Mail, out *Outbox) bool {
		if round < 2 {
			out.SendAll(sizedMsg{n: int64(v) + 1})
			return false
		}
		return true
	}
	s1, err := Sequential.Run(context.Background(), NewTopology(g), f, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parallel.Run(context.Background(), NewTopology(g), f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("engines disagree: %+v vs %+v", s1, s2)
	}
}
