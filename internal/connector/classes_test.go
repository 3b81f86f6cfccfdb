package connector

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestClassesComposes checks the class stage on both kinds: only nonempty
// classes are colored, in class order, each sees the subgraph of exactly
// its class, every element gets φ·P′+ψ, and the class costs fold with
// ParAll.
func TestClassesComposes(t *testing.T) {
	g := gen.GNP(40, 0.2, 7)
	const k, subPalette = 5, 100
	for _, kind := range []ClassKind{EdgeClasses, VertexClasses} {
		n := g.M()
		if kind == VertexClasses {
			n = g.N()
		}
		phi := make([]int64, n)
		for i := range phi {
			phi[i] = int64(i*7%k) &^ 1 // classes 0, 2 and 4; 1 and 3 stay empty
		}
		var called []int64
		var want []sim.Stats
		colors, st, err := Classes(g, kind, phi, k, subPalette, func(c int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
			called = append(called, c)
			orig := sub.EOrig
			if kind == VertexClasses {
				orig = sub.VOrig
			}
			psi := make([]int64, len(orig))
			for i, o := range orig {
				if phi[o] != c {
					t.Fatalf("kind %d: class %d holds element %d of class %d", kind, c, o, phi[o])
				}
				psi[i] = int64(o) % subPalette
			}
			cost := sim.Stats{Rounds: int(c) + 1, Messages: int64(len(orig))}
			want = append(want, cost)
			return psi, cost, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(called, []int64{0, 2, 4}) {
			t.Fatalf("kind %d: classes colored %v, want [0 2 4]", kind, called)
		}
		for i, c := range colors {
			if want := phi[i]*subPalette + int64(i)%subPalette; c != want {
				t.Fatalf("kind %d: element %d colored %d, want %d", kind, i, c, want)
			}
		}
		if st != sim.ParAll(want) {
			t.Fatalf("kind %d: stats %+v, want %+v", kind, st, sim.ParAll(want))
		}
	}
}

// TestClassesErrors: a class outside [0, k) and a failing class are
// reported, and the first failing class stops the stage.
func TestClassesErrors(t *testing.T) {
	g := graph.Complete(5)
	ok := func(_ int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
		return make([]int64, sub.G.N()), sim.Stats{}, nil
	}
	if _, _, err := Classes(g, VertexClasses, []int64{0, 1, 2, 3, 4}, 4, 1, ok); err == nil {
		t.Fatal("vertex class outside [0,k) accepted")
	}
	if _, _, err := Classes(g, EdgeClasses, make([]int64, g.M()-1), 1, 1, ok); err == nil {
		t.Fatal("short edge coloring accepted")
	}
	boom := errors.New("boom")
	var calls int
	_, _, err := Classes(g, EdgeClasses, []int64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 2, 1, func(int64, *graph.Sub) ([]int64, sim.Stats, error) {
		calls++
		return nil, sim.Stats{}, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err %v after %d calls, want boom after 1", err, calls)
	}
}

// TestClassesHugePalette: the class tables cover only the classes present,
// so a coloring from a declared palette near 2⁶² costs what its classes
// use, and each callback gets its actual class.
func TestClassesHugePalette(t *testing.T) {
	g := gen.GNP(30, 0.2, 3)
	const k = int64(1) << 62
	for _, kind := range []ClassKind{EdgeClasses, VertexClasses} {
		n := g.M()
		if kind == VertexClasses {
			n = g.N()
		}
		phi := make([]int64, n)
		for i := range phi {
			phi[i] = k - 1 - int64(i%3)*2 // classes k−5, k−3 and k−1
		}
		var called []int64
		colors, _, err := Classes(g, kind, phi, k, 1, func(c int64, sub *graph.Sub) ([]int64, sim.Stats, error) {
			called = append(called, c)
			if kind == VertexClasses {
				return make([]int64, sub.G.N()), sim.Stats{}, nil
			}
			return make([]int64, sub.G.M()), sim.Stats{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(called, []int64{k - 5, k - 3, k - 1}) {
			t.Fatalf("kind %d: classes colored %v, want [k-5 k-3 k-1]", kind, called)
		}
		if !reflect.DeepEqual(colors, phi) {
			t.Fatalf("kind %d: colors are not φ·1+0", kind)
		}
	}
}
