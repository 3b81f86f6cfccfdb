package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// The reference canonical labeling: a direct implementation that sorts
// with sort.Slice and allocates fresh slices in every pass, for every
// candidate and every certificate, and refines every candidate it scans.
// CanonicalLabeling and CanonicalForm must return exactly what these
// return — the labels, the edge order and the hash are the result cache's
// key, so any drift would orphan every cached entry — and the differential
// tests, the fuzz target and the reference benchmarks compare against it.

// RefCanonicalLabeling and RefCanonicalForm expose the reference to the
// external test package, whose corpora draw on internal/gen.
var (
	RefCanonicalLabeling = refCanonicalLabeling
	RefCanonicalForm     = refCanonicalForm
)

const refFnvPrime = 1099511628211

func refMix(h, x uint64) uint64 {
	h ^= x
	h *= refFnvPrime
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

func refRefineStable(g *Graph, classes []int, count int) ([]int, int) {
	n := g.N()
	sigs := make([]uint64, n)
	nbr := make([]uint64, 0, g.maxDeg)
	for {
		for v := 0; v < n; v++ {
			nbr = nbr[:0]
			for _, a := range g.Adj(v) {
				nbr = append(nbr, uint64(classes[a.To])+1)
			}
			sort.Slice(nbr, func(i, j int) bool { return nbr[i] < nbr[j] })
			h := refMix(14695981039346656037, uint64(classes[v])+1)
			for _, x := range nbr {
				h = refMix(h, x)
			}
			sigs[v] = h
		}
		uniq := make([]uint64, n)
		copy(uniq, sigs)
		sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
		k := 0
		for i, s := range uniq {
			if i == 0 || s != uniq[i-1] {
				uniq[k] = s
				k++
			}
		}
		uniq = uniq[:k]
		next := make([]int, n)
		for v := 0; v < n; v++ {
			next[v] = sort.Search(k, func(i int) bool { return uniq[i] >= sigs[v] })
		}
		if k == count {
			return next, k
		}
		classes, count = next, k
	}
}

func refCertificate(g *Graph, classes []int, count int) uint64 {
	sizes := make([]int, count)
	for _, c := range classes {
		sizes[c]++
	}
	h := refMix(14695981039346656037, uint64(g.N()))
	h = refMix(h, uint64(g.M()))
	for _, s := range sizes {
		h = refMix(h, uint64(s))
	}
	pairs := make([]uint64, 0, g.M())
	for _, e := range g.edges {
		a, b := classes[e.U], classes[e.V]
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, uint64(a)<<32|uint64(b))
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	for _, p := range pairs {
		h = refMix(h, p)
	}
	return h
}

func refInitialClasses(g *Graph) ([]int, int) {
	n := g.N()
	degs := make([]int, 0, n)
	for v := 0; v < n; v++ {
		degs = append(degs, len(g.Adj(v)))
	}
	sort.Ints(degs)
	k := 0
	for i, d := range degs {
		if i == 0 || d != degs[i-1] {
			degs[k] = d
			k++
		}
	}
	degs = degs[:k]
	classes := make([]int, n)
	for v := 0; v < n; v++ {
		classes[v] = sort.Search(k, func(i int) bool { return degs[i] >= len(g.Adj(v)) })
	}
	return classes, k
}

const refCanonScanCap = 16

func refCanonicalLabeling(g *Graph) []int32 {
	n := g.N()
	classes, count := refInitialClasses(g)
	classes, count = refRefineStable(g, classes, count)
	for count < n {
		sizes := make([]int, count)
		for _, c := range classes {
			sizes[c]++
		}
		target := -1
		for c := 0; c < count; c++ {
			if sizes[c] > 1 {
				target = c
				break
			}
		}
		var (
			bestClasses []int
			bestCount   int
			bestCert    uint64
			have        bool
			scanned     int
		)
		for v := 0; v < n && scanned < refCanonScanCap; v++ {
			if classes[v] != target {
				continue
			}
			scanned++
			cand := make([]int, n)
			copy(cand, classes)
			cand[v] = count
			cc, ck := refRefineStable(g, cand, count+1)
			cert := refCertificate(g, cc, ck)
			if !have || cert < bestCert {
				bestClasses, bestCount, bestCert, have = cc, ck, cert, true
			}
		}
		classes, count = bestClasses, bestCount
	}
	perm := make([]int32, n)
	for v := 0; v < n; v++ {
		perm[v] = int32(classes[v])
	}
	return perm
}

func refCanonicalForm(g *Graph, perm []int32) (ord []int32, hash string) {
	pairs := refCanonicalPairs(g, perm)
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	ord = make([]int32, len(pairs))
	for i, p := range pairs {
		put(p.key)
		ord[i] = p.edge
	}
	return ord, hex.EncodeToString(h.Sum(nil))
}

type refCanonPair struct {
	key  uint64
	edge int32
}

func refCanonicalPairs(g *Graph, perm []int32) []refCanonPair {
	pairs := make([]refCanonPair, g.M())
	for e, ed := range g.edges {
		a, b := perm[ed.U], perm[ed.V]
		if a > b {
			a, b = b, a
		}
		pairs[e] = refCanonPair{key: uint64(a)<<32 | uint64(b), edge: int32(e)}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	return pairs
}
