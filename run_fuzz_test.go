package distcolor

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// runFuzzInput decodes fuzz bytes into a Run call: data[0] picks a
// registered algorithm, data[1] the vertex count (1 to 64), one byte per
// schema parameter an in-schema value, and the remaining byte pairs edges
// (self-loops and repeats skipped). An integer parameter takes 0 (the
// default) to 31, clamped to its schema, so x covers its whole range
// (edge/star's Applicable rejects an x too large for Δ, and vertex/cd's
// levels past singleton cliques cost nothing), and an arboricity of at
// most 31 keeps θ in the low hundreds; a float takes 0 to 7.5 in halves.
// vertex/cd runs on the graph's LineCover, with the cover as
// Options.Cover. ok is false when the bytes are too short to pick an
// algorithm and a vertex count.
func runFuzzInput(data []byte) (g *Graph, algo string, params Params, cover *CliqueCover, ok bool) {
	if len(data) < 2 {
		return nil, "", nil, nil, false
	}
	all := RegisteredAlgorithms()
	a := all[int(data[0])%len(all)]
	n := 1 + int(data[1])%64
	data = data[2:]
	params = Params{}
	for _, spec := range a.Params {
		if len(data) == 0 {
			break
		}
		v := float64(data[0] % 32)
		if spec.Type == "float" {
			v = float64(data[0]%16) / 2
		}
		if v != 0 {
			v = min(max(v, spec.Min), spec.Max)
		}
		params[spec.Name] = v
		data = data[1:]
	}
	var adj [64]uint64
	b := NewBuilder(n)
	for ; len(data) >= 2; data = data[2:] {
		u, v := int(data[0])%n, int(data[1])%n
		if u == v || adj[u]&(1<<v) != 0 {
			continue
		}
		adj[u] |= 1 << v
		adj[v] |= 1 << u
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		return nil, "", nil, nil, false
	}
	if a.NeedsCover {
		l, cov, err := LineCover(g)
		if err != nil {
			return nil, "", nil, nil, false
		}
		g, cover = l, cov
	}
	return g, a.Name, params, cover, true
}

// FuzzRun runs every registered algorithm on fuzzed graphs of at most 64
// vertices with in-schema parameters, once sequentially and once with
// Options.Parallel. Both runs must return identical Colorings, or errors
// with the same text; neither may panic or fail Run's own verification.
// Graphs this small run on one shard, so the target checks determinism,
// verification and panics, not sharding. Wired into `make fuzz`; corpus
// findings land in testdata/fuzz/FuzzRun.
func FuzzRun(f *testing.F) {
	ring := []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 2, 2, 4}
	twelve := []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 1, 3, 1, 4, 2, 3, 6, 7, 6, 8, 7, 9, 10, 11, 0, 11, 3, 9}
	for i, a := range RegisteredAlgorithms() {
		// A 6-cycle with two chords, and a 12-vertex graph dense enough for
		// the star partition's Δ ≥ 2^{x+1}.
		f.Add(append([]byte{byte(i), 5, 0, 1}, ring...))
		f.Add(append([]byte{byte(i), 11, 1, 5}, twelve...))
		if a.Name == AlgoVertexCD {
			// x = 30, far past the depth at which the cliques are singletons.
			f.Add(append([]byte{byte(i), 11, 30}, twelve...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, algo, params, cover, ok := runFuzzInput(data)
		if !ok {
			return
		}
		ctx := context.Background()
		seq, seqErr := Run(ctx, g, algo, params, Options{Cover: cover})
		par, parErr := Run(ctx, g, algo, params, Options{Cover: cover, Parallel: true})
		for _, err := range []error{seqErr, parErr} {
			if err != nil && strings.Contains(err.Error(), "produced an invalid coloring") {
				t.Fatalf("%s %v on n=%d m=%d: %v", algo, params, g.N(), g.M(), err)
			}
		}
		if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
			t.Fatalf("%s %v on n=%d m=%d: sequential error %v, parallel error %v", algo, params, g.N(), g.M(), seqErr, parErr)
		}
		if seqErr == nil && !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s %v on n=%d m=%d: sequential %+v, parallel %+v", algo, params, g.N(), g.M(), seq, par)
		}
	})
}
