package graph

// DegeneracyOrder computes a degeneracy ordering of g by repeatedly removing
// a minimum-degree vertex (the Matula–Beck bin sort, O(n+m)). It returns
// the order (first-removed first) and the degeneracy d: the largest degree
// seen at removal time.
//
// Degeneracy bounds arboricity: a(G) ≤ d(G) ≤ 2a(G) − 1, so d is the
// arboricity estimate we hand to Section 5 when the caller does not know a
// exactly. Orienting each edge from earlier to later in the order gives an
// acyclic orientation with out-degree ≤ d.
func DegeneracyOrder(g *Graph) (order []int, degeneracy int) {
	vert, d := peel(g)
	order = make([]int, len(vert))
	for i, v := range vert {
		order[i] = int(v)
	}
	return order, d
}

// peel removes g's vertices in a degeneracy order and returns the order
// and the degeneracy. vert lists the vertices by current degree deg, bin[k]
// is where degree k starts in it, and pos[v] is v's place. Removing the
// next vertex v swaps each neighbor of higher current degree to the start
// of its degree's range and moves that start past it, which lowers its
// degree by one and keeps vert sorted; the vertices removed before v have
// degree at most v's and are left alone.
func peel(g *Graph) (vert []int32, degeneracy int) {
	n := g.N()
	slab := make([]int32, 3*n)
	deg, pos, vert := slab[:n:n], slab[n:2*n:2*n], slab[2*n:]
	bin := make([]int32, g.MaxDegree()+1)
	for v := range deg {
		deg[v] = int32(g.Degree(v))
		bin[deg[v]]++
	}
	start := int32(0)
	for k, c := range bin {
		bin[k], start = start, start+c
	}
	for v, k := range deg {
		pos[v] = bin[k]
		vert[pos[v]] = int32(v)
		bin[k]++
	}
	copy(bin[1:], bin)
	bin[0] = 0
	for i := range vert {
		v := vert[i]
		dv := deg[v]
		degeneracy = max(degeneracy, int(dv))
		for _, a := range g.Adj(int(v)) {
			u := a.To
			if du := deg[u]; du > dv {
				pu, pw := pos[u], bin[du]
				if w := vert[pw]; w != u {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return vert, degeneracy
}

// ArboricityUpperBound returns an upper bound on the arboricity of g derived
// from its degeneracy (a ≤ degeneracy always, and degeneracy ≤ 2a−1, so the
// bound is within a factor 2 of the truth).
func ArboricityUpperBound(g *Graph) int {
	if g.M() == 0 {
		return 0
	}
	_, d := peel(g)
	return d
}

// IsConnected reports whether g is connected (the empty graph is connected).
func IsConnected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Adj(v) {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, int(a.To))
			}
		}
	}
	return count == n
}

// DegreeHistogram returns hist where hist[d] counts vertices of degree d.
func DegreeHistogram(g *Graph) []int {
	hist := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		hist[g.Degree(v)]++
	}
	return hist
}
