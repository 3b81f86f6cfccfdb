// Package util provides small numeric helpers shared across the distcolor
// modules: integer roots and logarithms, prime search for the finite fields
// used by Linial's coloring, ceiling division, and the iterated logarithm
// that appears in every LOCAL-model running-time bound.
package util

import (
	"fmt"
	"math"
)

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("util.CeilDiv: non-positive divisor %d", b))
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// ISqrt returns ⌊√n⌋ for n ≥ 0, for every n up to MaxInt.
func ISqrt(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("util.ISqrt: negative argument %d", n))
	}
	if n < 2 {
		return n
	}
	// Newton's method on integers converges from above. The first iterate
	// is ⌈n/2⌉ spelled as n/2 + n%2: the textbook (n+1)/2 overflows at
	// n = MaxInt and seeds the descent with a negative value.
	x := n
	y := x/2 + x%2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// ICbrt returns ⌊n^(1/3)⌋ for n ≥ 0, for every n up to MaxInt. The
// ascent is guarded by powAtMost: the direct (x+1)³ ≤ n test overflows
// once x+1 passes 2²¹ (so for n within a factor ~8 of MaxInt on 64-bit)
// and terminated the loop with a wrong floor.
func ICbrt(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("util.ICbrt: negative argument %d", n))
	}
	x := 0
	for powAtMost(x+1, 3, n) {
		x++
	}
	return x
}

// IRoot returns ⌊n^(1/k)⌋ for n ≥ 0, k ≥ 1, for every n up to MaxInt.
func IRoot(n, k int) int {
	if n < 0 || k < 1 {
		panic(fmt.Sprintf("util.IRoot: invalid arguments n=%d k=%d", n, k))
	}
	if k == 1 || n < 2 {
		return n
	}
	// Binary search with the overflow-safe power bound; the midpoint is
	// computed as lo + (hi-lo+1)/2 because lo+hi itself can exceed MaxInt
	// when n does not leave headroom.
	lo, hi := 1, n
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if powAtMost(mid, k, n) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// CeilRoot returns ⌈n^(1/k)⌉, the smallest r ≥ 1 with r^k ≥ n, for k ≥ 1
// and every n up to MaxInt.
func CeilRoot(n, k int) int {
	if n <= 1 {
		return 1
	}
	r := IRoot(n, k)
	if powAtMost(r, k, n-1) {
		r++
	}
	return r
}

// powAtMost reports whether base^exp ≤ limit without overflowing.
func powAtMost(base, exp, limit int) bool {
	result := 1
	for i := 0; i < exp; i++ {
		if result > limit/base {
			return false
		}
		result *= base
	}
	return result <= limit
}

// MulSat returns a·b for a, b ≥ 0, saturating at math.MaxInt64: the
// declared palettes of the recursions are such products, and a caller
// refuses a saturated one as an overflow.
func MulSat(a, b int64) int64 {
	if b != 0 && a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// IPow returns base^exp for exp ≥ 0. It panics on overflow beyond int range.
func IPow(base, exp int) int {
	if exp < 0 {
		panic(fmt.Sprintf("util.IPow: negative exponent %d", exp))
	}
	result := 1
	for i := 0; i < exp; i++ {
		next := result * base
		if base != 0 && next/base != result {
			panic(fmt.Sprintf("util.IPow: overflow computing %d^%d", base, exp))
		}
		result = next
	}
	return result
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n = 1).
func Log2Ceil(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("util.Log2Ceil: argument %d < 1", n))
	}
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// Log2Floor returns ⌊log₂ n⌋ for n ≥ 1.
func Log2Floor(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("util.Log2Floor: argument %d < 1", n))
	}
	l := -1
	for v := n; v > 0; v >>= 1 {
		l++
	}
	return l
}

// LogStar returns the iterated logarithm log*₂(n): the number of times log₂
// must be applied before the value drops to at most 1. LogStar(1) = 0,
// LogStar(2) = 1, LogStar(4) = 2, LogStar(16) = 3, LogStar(65536) = 4.
func LogStar(n int64) int {
	count := 0
	v := float64(n)
	for v > 1 {
		v = log2f(v)
		count++
		if count > 64 {
			break // unreachable for int64 inputs; guards float corner cases
		}
	}
	return count
}

func log2f(x float64) float64 {
	// Avoid importing math for a single call site used in bounds reporting:
	// repeated halving is exact enough for LogStar's integer output.
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	if x > 1 {
		l += x - 1 // linear interpolation below 2; precision is irrelevant here
	}
	return l
}

// IsPrime reports whether n is prime, by trial division (n is always small in
// this codebase: it is a field size Θ(Δ·log m)).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime ≥ n.
func NextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}
