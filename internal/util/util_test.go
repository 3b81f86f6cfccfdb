package util

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2},
		{10, 3, 4}, {9, 3, 3}, {100, 7, 15}, {-3, 2, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestISqrtExact(t *testing.T) {
	for n := 0; n <= 10000; n++ {
		got := ISqrt(n)
		if got*got > n || (got+1)*(got+1) <= n {
			t.Fatalf("ISqrt(%d) = %d is not the floor square root", n, got)
		}
	}
}

func TestISqrtQuick(t *testing.T) {
	f := func(x uint32) bool {
		n := int(x % 1_000_000_000)
		r := ISqrt(n)
		return r*r <= n && (r+1)*(r+1) > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestICbrt(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		got := ICbrt(n)
		if got*got*got > n || (got+1)*(got+1)*(got+1) <= n {
			t.Fatalf("ICbrt(%d) = %d incorrect", n, got)
		}
	}
}

func TestIRootAgreesWithSpecialCases(t *testing.T) {
	for n := 0; n <= 3000; n++ {
		if IRoot(n, 2) != ISqrt(n) {
			t.Fatalf("IRoot(%d,2)=%d != ISqrt=%d", n, IRoot(n, 2), ISqrt(n))
		}
		if IRoot(n, 3) != ICbrt(n) {
			t.Fatalf("IRoot(%d,3)=%d != ICbrt=%d", n, IRoot(n, 3), ICbrt(n))
		}
		if IRoot(n, 1) != n {
			t.Fatalf("IRoot(%d,1) != n", n)
		}
	}
}

func TestIRootQuick(t *testing.T) {
	f := func(x uint16, kk uint8) bool {
		n := int(x)
		k := int(kk%6) + 1
		r := IRoot(n, k)
		if n < 2 {
			return r == n
		}
		// r^k <= n < (r+1)^k
		return powAtMost(r, k, n) && !powAtMost(r+1, k, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRootsAtIntBoundary pins the MaxInt-adjacent behavior: the direct
// (x+1)^k probes overflowed near the top of the int range (ICbrt looped on
// (x+1)³ ≤ n, IRoot's midpoint on lo+hi+1, ISqrt's seed on n+1) and
// returned wrong floors instead of these exact values.
func TestRootsAtIntBoundary(t *testing.T) {
	if math.MaxInt != math.MaxInt64 {
		t.Skip("boundary constants below assume 64-bit int")
	}
	const maxInt = math.MaxInt64
	// ⌊√MaxInt64⌋ and ⌊MaxInt64^(1/3)⌋ are known constants.
	const sqrtMax = 3037000499
	const cbrtMax = 2097151
	for _, n := range []int{maxInt, maxInt - 1, maxInt - 2} {
		if got := ISqrt(n); got != sqrtMax {
			t.Errorf("ISqrt(%d) = %d, want %d", n, got, sqrtMax)
		}
		if got := ICbrt(n); got != cbrtMax {
			t.Errorf("ICbrt(%d) = %d, want %d", n, got, cbrtMax)
		}
		for k := 2; k <= 8; k++ {
			r := IRoot(n, k)
			if !powAtMost(r, k, n) || powAtMost(r+1, k, n) {
				t.Errorf("IRoot(%d,%d) = %d is not the floor root", n, k, r)
			}
		}
		if got := IRoot(n, 62); got != 2 {
			t.Errorf("IRoot(%d,62) = %d, want 2", n, got)
		}
	}
	// Exact k-th powers just below the boundary must round-trip.
	if got := ICbrt(cbrtMax * cbrtMax * cbrtMax); got != cbrtMax {
		t.Errorf("ICbrt(%d³) = %d, want %d", cbrtMax, got, cbrtMax)
	}
	if got := ISqrt(sqrtMax * sqrtMax); got != sqrtMax {
		t.Errorf("ISqrt(%d²) = %d, want %d", sqrtMax, got, sqrtMax)
	}
	if got := IRoot(1<<62, 62); got != 2 {
		t.Errorf("IRoot(2^62,62) = %d, want 2", got)
	}
	if got := IRoot(1<<62-1, 62); got != 1 {
		t.Errorf("IRoot(2^62-1,62) = %d, want 1", got)
	}
}

// TestCeilRoot checks CeilRoot against its definition, the smallest r ≥ 1
// with r^k ≥ n: by linear search for small n, and with exact big-integer
// powers on either side of r up to n = MaxInt, for k = 1..64.
func TestCeilRoot(t *testing.T) {
	atLeast := func(r, k, n int) bool { // r^k ≥ n, exactly
		p := new(big.Int).Exp(big.NewInt(int64(r)), big.NewInt(int64(k)), nil)
		return p.Cmp(big.NewInt(int64(n))) >= 0
	}
	for k := 1; k <= 64; k++ {
		want := 1
		for n := 0; n <= 2000; n++ {
			for !atLeast(want, k, n) {
				want++
			}
			if got := CeilRoot(n, k); got != want {
				t.Fatalf("CeilRoot(%d,%d) = %d, want %d", n, k, got, want)
			}
		}
	}
	const sqrtMax, cbrtMax = 3037000499, 2097151
	var large []int
	for _, n := range []int{math.MaxInt, 1 << 62, sqrtMax * sqrtMax, cbrtMax * cbrtMax * cbrtMax, 4052555153018976267 /* 3^39 */, 1 << 40, 1e15} {
		large = append(large, n-1, n)
		if n < math.MaxInt {
			large = append(large, n+1)
		}
	}
	for _, n := range large {
		for k := 1; k <= 64; k++ {
			r := CeilRoot(n, k)
			if r < 1 || !atLeast(r, k, n) || (r > 1 && atLeast(r-1, k, n)) {
				t.Errorf("CeilRoot(%d,%d) = %d is not the ceiling root", n, k, r)
			}
		}
	}
}

func TestIPow(t *testing.T) {
	cases := []struct{ b, e, want int }{
		{2, 0, 1}, {2, 10, 1024}, {3, 4, 81}, {10, 3, 1000}, {0, 0, 1}, {0, 3, 0}, {1, 62, 1},
	}
	for _, c := range cases {
		if got := IPow(c.b, c.e); got != c.want {
			t.Errorf("IPow(%d,%d)=%d want %d", c.b, c.e, got, c.want)
		}
	}
}

func TestIPowOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	IPow(1<<32, 3)
}

// TestIPowAtIntBoundary: the largest representable powers compute exactly;
// one step past them panics rather than wrapping.
func TestIPowAtIntBoundary(t *testing.T) {
	if got := IPow(2, 62); got != 1<<62 {
		t.Fatalf("IPow(2,62) = %d", got)
	}
	if got := IPow(3037000499, 2); got != 3037000499*3037000499 {
		t.Fatalf("IPow(sqrtMax,2) = %d", got)
	}
	for _, c := range []struct{ b, e int }{{2, 63}, {3037000500, 2}, {2097152, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IPow(%d,%d) did not panic on overflow", c.b, c.e)
				}
			}()
			IPow(c.b, c.e)
		}()
	}
}

func TestLog2(t *testing.T) {
	if Log2Ceil(1) != 0 || Log2Floor(1) != 0 {
		t.Fatal("log2(1) should be 0")
	}
	for n := 2; n < 1<<20; n = n*7/3 + 1 {
		wantF := int(math.Floor(math.Log2(float64(n))))
		wantC := int(math.Ceil(math.Log2(float64(n))))
		if got := Log2Floor(n); got != wantF {
			t.Errorf("Log2Floor(%d)=%d want %d", n, got, wantF)
		}
		if got := Log2Ceil(n); got != wantC {
			t.Errorf("Log2Ceil(%d)=%d want %d", n, got, wantC)
		}
	}
}

func TestLogStar(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 3}, {17, 4}, {65536, 4}, {65537, 5}, {1 << 62, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.n); got != c.want {
			t.Errorf("LogStar(%d)=%d want %d", c.n, got, c.want)
		}
	}
}

func TestPrimes(t *testing.T) {
	known := map[int]bool{
		2: true, 3: true, 4: false, 5: true, 9: false, 97: true, 91: false,
		7919: true, 7917: false, 1: false, 0: false,
	}
	for n, want := range known {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d)=%v want %v", n, got, want)
		}
	}
	if NextPrime(14) != 17 || NextPrime(17) != 17 || NextPrime(0) != 2 || NextPrime(8) != 11 {
		t.Fatal("NextPrime incorrect")
	}
}

func TestNextPrimeQuick(t *testing.T) {
	f := func(x uint16) bool {
		n := int(x)
		p := NextPrime(n)
		if p < n || !IsPrime(p) {
			return false
		}
		for q := max(n, 2); q < p; q++ {
			if IsPrime(q) {
				return false // skipped a prime
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMulSat(t *testing.T) {
	for _, c := range []struct{ a, b, want int64 }{
		{0, math.MaxInt64, 0},
		{math.MaxInt64, 0, 0},
		{1, math.MaxInt64, math.MaxInt64},
		{3_037_000_499, 3_037_000_499, 9_223_372_030_926_249_001}, // ⌊√MaxInt64⌋²
		{3_037_000_500, 3_037_000_500, math.MaxInt64},
		{1 << 32, 1 << 31, math.MaxInt64},
	} {
		if got := MulSat(c.a, c.b); got != c.want {
			t.Fatalf("MulSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
