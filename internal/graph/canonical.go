package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"slices"
)

// Canonical labeling and content hashing.
//
// CanonicalLabeling computes a vertex relabeling that depends only on the
// isomorphism class of the graph for the vast majority of inputs, by
// 1-dimensional Weisfeiler–Leman color refinement followed by greedy
// minimal-certificate individualization. Isomorphic relabelings of a graph
// therefore map to the same canonical form and hash equal; distinct graphs
// hash differently up to 64/256-bit hash collisions.
//
// The individualization step is greedy (no backtracking): when a stable
// partition still has a non-singleton class, one vertex of the first such
// class is split off — the vertex whose refined quotient certificate is
// minimal. For vertices that are genuinely symmetric (automorphic) every
// choice yields the same canonical form, so the greedy step is exact on all
// vertex-transitive ties. Only WL-indistinguishable yet non-automorphic
// vertices (e.g. in some strongly regular graphs) can make two isomorphic
// copies disagree; callers that use the hash as a cache key must therefore
// treat it as a fingerprint — verify on hit — not as a proof of isomorphism.
// A false *negative* (isomorphic graphs hashing differently) only costs a
// cache miss; a false *positive* is caught by post-remap verification.
//
// The labels are the result cache's key, so they are pinned bit for bit to
// the reference implementation in canonical_ref_test.go; candidates
// explains why skipping twins leaves them unchanged (DESIGN.md §6).

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// canonScanCap bounds how many candidates of a target cell each
// individualization step refines. Scanning the whole cell makes symmetric
// families (cycles, complete graphs: one big WL class) cost O(n) refines
// per step — cubic overall. All vertices of a cell are WL-equivalent, and
// for automorphic ties (the overwhelmingly common kind) every candidate
// yields the same certificate, so a bounded prefix loses nothing there; for
// WL-equivalent non-automorphic ties it can only cost hash stability, which
// cache users already tolerate (verify-on-hit).
const canonScanCap = 16

// sigVertex is one vertex's refinement signature, the record a pass sorts
// to rank the signatures.
type sigVertex struct {
	sig uint64
	v   int32
}

func cmpSig(a, b sigVertex) int { return cmp.Compare(a.sig, b.sig) }

// canonizer holds the scratch buffers of one CanonicalLabeling call. Class
// ids are canonical ranks: a pass assigns them by sorting signature values,
// so they are invariant under vertex relabeling.
type canonizer struct {
	g *Graph
	// Refinement passes.
	byClass []int32     // len N(): the vertices in ascending class order
	recs    []sigVertex // len N(): signatures in vertex order
	sorted  []sigVertex // len N(): signatures in ascending order
	bucket  []int32     // len N(): the top bits of each vertex's signature
	shift   uint        // signature bits below the bucket bits
	cnt     []int32     // len > N(): sizes and counting-sort offsets
	// Individualization.
	cands [canonScanCap]int32 // the candidates of one step
	part  [4][]int32          // partition buffers, len N() each
	// Certificates.
	lo  []int32 // len M(): the smaller class of each edge
	hi  []int32 // len M(): the larger class of each edge
	tmp []int32 // len M(): counting-sort scratch
	ord []int32 // len M(): edge ids in class-pair order
}

func newCanonizer(g *Graph) *canonizer {
	n, m := g.N(), g.M()
	// More buckets than vertices: about one distinct signature per bucket.
	bucketBits := bits.Len(uint(n))
	buckets := 1 << bucketBits
	// The int32 scratch shares one arena. The partition buffers are
	// allocated on their own: the labeling returns one of them.
	arena := make([]int32, 2*n+buckets+4*m)
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	recs := make([]sigVertex, 2*n)
	c := &canonizer{
		g:       g,
		byClass: take(n),
		recs:    recs[:n:n],
		sorted:  recs[n:],
		bucket:  take(n),
		shift:   uint(64 - bucketBits),
		cnt:     take(buckets),
		lo:      take(m),
		hi:      take(m),
		tmp:     take(m),
		ord:     take(m),
	}
	for i := range c.part {
		c.part[i] = make([]int32, n)
	}
	return c
}

// initialClasses writes each vertex's rank among the distinct degrees, the
// WL base case, into out and returns the number of distinct degrees.
func (c *canonizer) initialClasses(out []int32) int {
	rank := c.cnt[:c.g.maxDeg+1]
	clear(rank)
	for v := range out {
		rank[c.g.Degree(v)] = 1
	}
	k := int32(0)
	for d, present := range rank {
		rank[d] = k
		k += present
	}
	for v := range out {
		out[v] = rank[c.g.Degree(v)]
	}
	return int(k)
}

// refinePass runs one WL refinement pass over the partition in, which has
// count classes: it hashes each vertex's class with the ascending classes
// of its neighbors, writes each vertex's rank among the distinct hashes
// into out, and returns the number of distinct hashes.
//
//distcolor:noalloc
func (c *canonizer) refinePass(in, out []int32, count int) int {
	cnt := c.cnt[:count]
	countOffsets(cnt, in)
	for v, x := range in {
		c.byClass[cnt[x]] = int32(v)
		cnt[x]++
		c.recs[v] = sigVertex{sig: mix(fnvOffset, uint64(x)+1), v: int32(v)}
	}
	// Folding each vertex's class into its neighbors' hashes, in ascending
	// class order, hashes every vertex's neighbor classes in ascending
	// order without sorting them.
	for _, u := range c.byClass {
		x := uint64(in[u]) + 1
		for _, a := range c.g.Adj(int(u)) {
			c.recs[a.To].sig = mix(c.recs[a.To].sig, x)
		}
	}
	// Sort the signatures: a counting sort on their top bits, then a sort
	// of each bucket found out of order. Signatures are hash values, so a
	// bucket holds about one distinct value, often many times over.
	for v, r := range c.recs {
		c.bucket[v] = int32(r.sig >> c.shift)
	}
	cnt = c.cnt
	countOffsets(cnt, c.bucket)
	for v, b := range c.bucket {
		c.sorted[cnt[b]] = c.recs[v]
		cnt[b]++
	}
	// Now bucket b spans sorted[cnt[b-1]:cnt[b]].
	for i := 1; i < len(c.sorted); i++ {
		if c.sorted[i].sig < c.sorted[i-1].sig {
			b := c.sorted[i].sig >> c.shift
			lo := int32(0)
			if b > 0 {
				lo = cnt[b-1]
			}
			slices.SortFunc(c.sorted[lo:cnt[b]], cmpSig)
			i = int(cnt[b]) // buckets are in order with each other
		}
	}
	k := int32(-1)
	for i, r := range c.sorted {
		if i == 0 || r.sig != c.sorted[i-1].sig {
			k++
		}
		out[r.v] = k
	}
	return int(k + 1)
}

// refine iterates refinement passes from the partition in, which has count
// classes, until the number of classes stops growing. Passes alternate
// between in and out; refine returns the buffer holding the stable
// partition, the other buffer, and the stable class count.
//
//distcolor:noalloc
func (c *canonizer) refine(in, out []int32, count int) (stable, spare []int32, k int) {
	for {
		k = c.refinePass(in, out, count)
		if k == count {
			return out, in, k
		}
		in, out, count = out, in, k
	}
}

// certificate hashes the quotient structure of a stable partition: the class
// size histogram plus the multiset of edge class-pairs, in increasing
// order. It is invariant under vertex relabeling, and when the partition is
// discrete it determines the canonically relabeled edge list exactly.
//
//distcolor:noalloc
func (c *canonizer) certificate(classes []int32, count int) uint64 {
	g := c.g
	sizes := c.cnt[:count]
	clear(sizes)
	for _, x := range classes {
		sizes[x]++
	}
	h := mix(fnvOffset, uint64(g.N()))
	h = mix(h, uint64(g.M()))
	for _, s := range sizes {
		h = mix(h, uint64(s))
	}
	for e, ed := range g.edges {
		a, b := classes[ed.U], classes[ed.V]
		if a > b {
			a, b = b, a
		}
		c.lo[e], c.hi[e] = a, b
	}
	sortEdgesByPair(c.ord, c.tmp, c.lo, c.hi, sizes)
	for _, e := range c.ord {
		h = mix(h, uint64(c.lo[e])<<32|uint64(c.hi[e]))
	}
	return h
}

// sortEdgesByPair writes into out the edge ids 0..len(lo)-1 ordered by the
// pair (lo[e], hi[e]), keys below len(cnt): a two-pass counting sort, by hi
// and then stably by lo. tmp is scratch of the same length as out.
//
//distcolor:noalloc
func sortEdgesByPair(out, tmp, lo, hi, cnt []int32) {
	countOffsets(cnt, hi)
	for e, k := range hi {
		tmp[cnt[k]] = int32(e)
		cnt[k]++
	}
	countOffsets(cnt, lo)
	for _, e := range tmp {
		k := lo[e]
		out[cnt[k]] = e
		cnt[k]++
	}
}

// countOffsets sets cnt[k] to the number of keys below k: the first output
// slot of key k in a counting sort.
//
//distcolor:noalloc
func countOffsets(cnt, keys []int32) {
	clear(cnt)
	for _, k := range keys {
		cnt[k]++
	}
	sum := int32(0)
	for k, n := range cnt {
		cnt[k] = sum
		sum += n
	}
}

// twins reports whether N(u)\{w} = N(w)\{u}, by one merge of the two
// sorted adjacency lists. Swapping twins is an automorphism of g.
//
//distcolor:noalloc
func (g *Graph) twins(u, w int) bool {
	au, aw := g.Adj(u), g.Adj(w)
	i, j := 0, 0
	for {
		for i < len(au) && int(au[i].To) == w {
			i++
		}
		for j < len(aw) && int(aw[j].To) == u {
			j++
		}
		if i == len(au) || j == len(aw) {
			return i == len(au) && j == len(aw)
		}
		if au[i].To != aw[j].To {
			return false
		}
		i++
		j++
	}
}

// candidates returns the vertices an individualization step must refine:
// the first canonScanCap members of the non-singleton class with the
// smallest id (class ids are canonical ranks, so this choice is
// relabeling-invariant), in vertex order, minus every member that is a
// twin of an earlier kept one.
//
// Dropping twins cannot change the step's outcome. Swapping twins u and w
// is an automorphism of g that fixes the current partition, and refinement
// commutes with automorphisms, so individualizing w yields the image of
// individualizing u under the swap, with the same certificate. The step
// keeps the first candidate whose certificate is minimal, which is never a
// twin of an earlier candidate.
func (c *canonizer) candidates(classes []int32, count int) []int32 {
	sizes := c.cnt[:count]
	clear(sizes)
	for _, x := range classes {
		sizes[x]++
	}
	target := int32(0)
	for sizes[target] < 2 {
		target++
	}
	cands := c.cands[:0]
	scanned := 0
scan:
	for v, x := range classes {
		if x != target {
			continue
		}
		if scanned == canonScanCap {
			break
		}
		scanned++
		for _, u := range cands {
			if c.g.twins(int(u), v) {
				continue scan
			}
		}
		cands = append(cands, int32(v))
	}
	return cands
}

// CanonicalLabeling returns perm with perm[v] = the canonical index of
// vertex v (a bijection onto 0..n-1). See the package comments above for the
// exact invariance guarantee.
func CanonicalLabeling(g *Graph) []int32 {
	n := g.N()
	c := newCanonizer(g)
	cur, next, best, work := c.part[0], c.part[1], c.part[2], c.part[3]
	count := c.initialClasses(cur)
	cur, next, count = c.refine(cur, next, count)
	for count < n {
		cands := c.candidates(cur, count)
		if len(cands) == 1 {
			// The single survivor wins without a certificate to compare.
			copy(next, cur)
			next[cands[0]] = int32(count)
			cur, next, count = c.refine(next, cur, count+1)
			continue
		}
		var (
			bestCount int
			bestCert  uint64
		)
		for i, v := range cands {
			// Individualize v: give it a fresh class above all others,
			// then re-refine to a stable partition.
			copy(next, cur)
			next[v] = int32(count)
			stable, spare, k := c.refine(next, work, count+1)
			cert := c.certificate(stable, k)
			if i == 0 || cert < bestCert {
				best, stable = stable, best
				bestCount, bestCert = k, cert
			}
			next, work = stable, spare
		}
		cur, best, count = best, cur, bestCount
	}
	return cur
}

// CanonicalHash returns a hex-encoded SHA-256 of the canonically relabeled
// edge list (preceded by the vertex and edge counts): a content address for
// the graph's structure. Isomorphic relabelings of the same graph hash
// equal whenever CanonicalLabeling canonizes them (always, except for
// WL-hard symmetric ties — see the caveat above CanonicalLabeling).
func CanonicalHash(g *Graph) string {
	_, hash := CanonicalForm(g, CanonicalLabeling(g))
	return hash
}

// CanonicalForm returns the canonical edge order together with the
// canonical hash. ord[i] is the original identifier of the i-th edge in
// canonical order (edges sorted by their canonically relabeled endpoint
// pairs). Two isomorphic graphs canonized to the same form produce
// position-wise corresponding edges, which is what lets a cached edge
// coloring be transferred between them: colors[ord[i]] in one graph
// corresponds to colors[ord'[i]] in the other.
func CanonicalForm(g *Graph, perm []int32) (ord []int32, hash string) {
	n, m := g.N(), g.M()
	lo, hi := make([]int32, m), make([]int32, m)
	for e, ed := range g.edges {
		a, b := perm[ed.U], perm[ed.V]
		if a > b {
			a, b = b, a
		}
		lo[e], hi[e] = a, b
	}
	ord = make([]int32, m)
	sortEdgesByPair(ord, make([]int32, m), lo, hi, make([]int32, n))
	buf := make([]byte, 0, 8*(m+2))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m))
	for _, e := range ord {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(lo[e])<<32|uint64(hi[e]))
	}
	sum := sha256.Sum256(buf)
	return ord, hex.EncodeToString(sum[:])
}
