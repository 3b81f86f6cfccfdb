package cd

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/cliques"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/util"
	"repro/internal/verify"
)

func TestDecomposeTheorem24(t *testing.T) {
	g, cov := lineInstance(t, 5, 35, 0.3)
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	for x := 1; x <= 3; x++ {
		dec, err := Decompose(context.Background(), g, cov, 2, x, Options{})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if err := VerifyDecomposition(cov, dec); err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		// Theorem 2.4 parts bound: (t·D)^x.
		partsBound := int64(1)
		for i := 0; i < x; i++ {
			partsBound *= int64(2 * d)
		}
		if dec.Parts > partsBound {
			t.Fatalf("x=%d: %d parts exceed (tD)^x = %d", x, dec.Parts, partsBound)
		}
		// Theorem 2.4 clique bound: S/tˣ + 2 (our ceil-chain is within it).
		wantQ := s
		den := 1
		for i := 0; i < x; i++ {
			den *= 2
		}
		if dec.CliqueBound > wantQ/den+2 {
			t.Fatalf("x=%d: clique bound %d exceeds S/tˣ+2 = %d", x, dec.CliqueBound, wantQ/den+2)
		}
	}
}

func TestDecomposeLemma22ClassDegree(t *testing.T) {
	// Lemma 2.2: after one level, every color class induces a subgraph of
	// maximum degree ≤ (k−1)·D with k = ⌈S/t⌉.
	g, cov := lineInstance(t, 9, 40, 0.25)
	d, s := cov.Diversity(), cov.MaxCliqueSize()
	tt := 3
	dec, err := Decompose(context.Background(), g, cov, tt, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := util.CeilDiv(s, tt)
	subs, first, err := graph.InducedClasses(g, dec.Class, dec.Parts)
	if err != nil {
		t.Fatal(err)
	}
	parts, _, err := cliques.Split(cov.Cliques, dec.Class, dec.Parts)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		c := first + int64(i)
		if sub.G.MaxDegree() > (k-1)*d {
			t.Fatalf("class %d degree %d exceeds (k−1)D = %d", c, sub.G.MaxDegree(), (k-1)*d)
		}
		// Lemma 2.3(ii): the cliques split to the class cover it, and its
		// diversity does not grow.
		rc, err := cliques.NewCover(sub.G, parts[i])
		if err != nil {
			t.Fatalf("class %d cover invalid: %v", c, err)
		}
		if rc.Diversity() > d {
			t.Fatalf("class %d diversity %d exceeds D=%d", c, rc.Diversity(), d)
		}
		// Lemma 2.3(i)/restriction: clique sizes shrink to ≤ k.
		if rc.MaxCliqueSize() > k {
			t.Fatalf("class %d clique size %d exceeds k=%d", c, rc.MaxCliqueSize(), k)
		}
	}
}

func TestDecomposeValidation(t *testing.T) {
	g, cov := lineInstance(t, 5, 20, 0.3)
	if _, err := Decompose(context.Background(), g, cov, 1, 1, Options{}); err == nil {
		t.Fatal("expected t error")
	}
	if _, err := Decompose(context.Background(), g, cov, 2, 0, Options{}); err == nil {
		t.Fatal("expected x error")
	}
}

func TestDecomposeEdgeless(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild()
	cov, err := cliques.NewCover(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompose(context.Background(), g, cov, 2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Parts != 1 {
		t.Fatalf("edgeless decomposition parts %d", dec.Parts)
	}
}

func TestDecomposeQuick(t *testing.T) {
	f := func(seed int64) bool {
		lg, cov, err := cliques.LineCover(gen.GNP(16, 0.35, seed))
		if err != nil || cov.MaxCliqueSize() < 2 {
			return err == nil
		}
		dec, err := Decompose(context.Background(), lg, cov, 2, 2, Options{})
		if err != nil {
			return false
		}
		return VerifyDecomposition(cov, dec) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeConsistentWithColoring(t *testing.T) {
	// Coloring each decomposition class with D(q−1)+1 colors (q = clique
	// bound) and combining must reproduce CD-Coloring's palette structure:
	// verify the decomposition supports a proper coloring with
	// parts · (D(q−1)+1) colors by running the greedy within classes.
	g, cov := lineInstance(t, 17, 30, 0.3)
	d := cov.Diversity()
	dec, err := Decompose(context.Background(), g, cov, 2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perClass := int64(d*(dec.CliqueBound-1) + 1)
	colors := make([]int64, g.N())
	subs, first, err := graph.InducedClasses(g, dec.Class, dec.Parts)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		c := first + int64(i)
		if sub.G.MaxDegree() >= int(perClass) {
			t.Fatalf("class %d degree %d not colorable with %d colors", c, sub.G.MaxDegree(), perClass)
		}
		// Greedy within the class (centralized; this is a structural test).
		local := make([]int64, sub.G.N())
		for i := range local {
			local[i] = -1
		}
		for w := 0; w < sub.G.N(); w++ {
			used := map[int64]bool{}
			for _, a := range sub.G.Adj(w) {
				if local[a.To] >= 0 {
					used[local[a.To]] = true
				}
			}
			var pick int64
			for used[pick] {
				pick++
			}
			local[w] = pick
		}
		for w, v := range sub.VOrig {
			colors[v] = c*perClass + local[w]
		}
	}
	if err := verify.VertexColoring(g, colors, dec.Parts*perClass); err != nil {
		t.Fatal(err)
	}
}
