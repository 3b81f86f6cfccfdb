package graph

import (
	"sync"
	"sync/atomic"
)

// DenseIndex is a reusable vertex→index translation table: the
// allocation-free replacement for the `map[int]int` (and `map[int32]int32`)
// tables the recursive decompositions used to rebuild at every level of
// every run. It is an epoch-stamped dense array — Reset is O(1), Put/Get
// are branch-and-load — and instances are pooled (AcquireDenseIndex /
// Release), so a deep recursion reuses one table's backing storage across
// all its levels instead of allocating a fresh map per subgraph.
//
// A DenseIndex is single-goroutine state; concurrent recursions each
// acquire their own.
type DenseIndex struct {
	stamp []uint32
	val   []int32
	cur   uint32
	// released guards the pool discipline: Release on an already-released
	// index panics instead of double-pooling it (two later acquirers would
	// share "distinct" tables and silently corrupt each other's entries).
	released bool
}

// Reset prepares the table for keys in [0, n), forgetting all entries in
// O(1) (amortized: storage growth and the once-per-4-billion-resets stamp
// wraparound are the only non-constant paths).
func (d *DenseIndex) Reset(n int) {
	if n > len(d.stamp) {
		d.stamp = make([]uint32, n+n/2)
		d.val = make([]int32, len(d.stamp))
		d.cur = 0
	}
	d.cur++
	if d.cur == 0 { // stamp wrapped: old entries would look current
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.cur = 1
	}
}

// Put records key → v. The key must be below the Reset bound.
func (d *DenseIndex) Put(key int, v int32) {
	d.stamp[key] = d.cur
	d.val[key] = v
}

// Get returns the value recorded for key since the last Reset.
func (d *DenseIndex) Get(key int) (int32, bool) {
	if d.stamp[key] != d.cur {
		return 0, false
	}
	return d.val[key], true
}

// Has reports whether key was Put since the last Reset.
func (d *DenseIndex) Has(key int) bool { return d.stamp[key] == d.cur }

var denseIndexPool = sync.Pool{New: func() any { return new(DenseIndex) }}

// denseIndexLive counts acquired-but-unreleased pooled indexes; see
// LeakCheckDenseIndexes.
var denseIndexLive atomic.Int64

// AcquireDenseIndex returns a pooled table Reset for keys in [0, n).
// Balance every acquisition with exactly one Release — `defer d.Release()`
// immediately after acquiring, so error returns cannot leak the index.
func AcquireDenseIndex(n int) *DenseIndex {
	d := denseIndexPool.Get().(*DenseIndex)
	d.released = false
	denseIndexLive.Add(1)
	d.Reset(n)
	return d
}

// Release returns the table to the pool. The caller must not use it
// afterwards; releasing twice panics (a double-pooled table would be
// handed to two acquirers at once and corrupt both).
func (d *DenseIndex) Release() {
	if d.released {
		panic("graph: DenseIndex released twice")
	}
	d.released = true
	denseIndexLive.Add(-1)
	denseIndexPool.Put(d)
}

// LeakCheckDenseIndexes runs fn and returns how many pooled indexes it
// acquired without releasing (negative would mean an over-release, which
// the double-release panic makes unreachable). Tests assert a zero return.
// The counter is process-global: do not run it concurrently with other
// acquirers.
func LeakCheckDenseIndexes(fn func()) int64 {
	before := denseIndexLive.Load()
	fn()
	return denseIndexLive.Load() - before
}
