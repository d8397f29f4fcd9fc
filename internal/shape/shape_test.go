package shape

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int64
		want []int64
	}{
		{1, []int64{1}},
		{2, []int64{1, 2}},
		{12, []int64{1, 2, 3, 4, 6, 12}},
		{16, []int64{1, 2, 4, 8, 16}},
		{17, []int64{1, 17}},
		{36, []int64{1, 2, 3, 4, 6, 9, 12, 18, 36}},
	}
	for _, c := range cases {
		got := Divisors(c.n)
		if len(got) != len(c.want) {
			t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
}

func TestDivisorsPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Divisors(0) did not panic")
		}
	}()
	Divisors(0)
}

func TestDivisorsProperties(t *testing.T) {
	f := func(raw uint16) bool {
		n := int64(raw%4096) + 1
		divs := Divisors(n)
		// Sorted, unique, all divide n, includes 1 and n.
		if divs[0] != 1 || divs[len(divs)-1] != n {
			return false
		}
		for i, d := range divs {
			if n%d != 0 {
				return false
			}
			if i > 0 && divs[i-1] >= d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplits(t *testing.T) {
	sp := Splits(12)
	if len(sp) != 6 {
		t.Fatalf("Splits(12) returned %d entries, want 6", len(sp))
	}
	for _, s := range sp {
		if s.Inner*s.Outer != 12 {
			t.Fatalf("split %+v does not multiply to 12", s)
		}
	}
	if sp[0].Inner != 1 || sp[len(sp)-1].Inner != 12 {
		t.Fatalf("Splits(12) not ordered by inner: %+v", sp)
	}
}

func TestThreeSplits(t *testing.T) {
	ts := ThreeSplits(8)
	// For n = p^3 with p prime^k... count = number of ordered triples
	// (a,b,c) with abc=8: for 2^3 it is C(3+2,2) = 10.
	if len(ts) != 10 {
		t.Fatalf("ThreeSplits(8) returned %d entries, want 10", len(ts))
	}
	for _, s := range ts {
		if s.L0*s.L1*s.L2 != 8 {
			t.Fatalf("three-split %+v does not multiply to 8", s)
		}
	}
}

func TestProduct(t *testing.T) {
	if got := Product(3, 4, 5); got != 60 {
		t.Fatalf("Product(3,4,5) = %d, want 60", got)
	}
	if got := Product(); got != 1 {
		t.Fatalf("Product() = %d, want 1", got)
	}
	if got := Product(10, 0, 5); got != 0 {
		t.Fatalf("Product with zero = %d, want 0", got)
	}
}

func TestProductOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Product overflow did not panic")
		}
	}()
	Product(1<<40, 1<<40)
}

// TestProductBoundaries pins which inputs panic: products up to 2^62
// return, anything past it or any negative factor panics, and a zero
// factor returns 0 only if no overflow happened before it.
func TestProductBoundaries(t *testing.T) {
	cases := []struct {
		xs    []int64
		want  int64
		panic bool
	}{
		{[]int64{1 << 31, 1 << 31}, 1 << 62, false},
		{[]int64{1<<31 + 1, 1 << 31}, 0, true},
		{[]int64{1 << 62}, 1 << 62, false},
		{[]int64{1<<62 + 1}, 0, true},
		{[]int64{2, 1 << 61}, 1 << 62, false},
		{[]int64{4, 1<<60 + 1}, 0, true},
		{[]int64{1 << 32, 1 << 32}, 0, true},
		{[]int64{-1}, 0, true},
		{[]int64{3, -2}, 0, true},
		{[]int64{-1 << 63}, 0, true},
		{[]int64{5, 0, 1 << 62, 1 << 62}, 0, false},
		{[]int64{0, -1}, 0, false},
		{[]int64{1 << 40, 1 << 40, 0}, 0, true},
	}
	for _, c := range cases {
		got, panicked := func() (p int64, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return Product(c.xs...), false
		}()
		if panicked != c.panic || got != c.want {
			t.Errorf("Product(%v) = %d, panic %v; want %d, panic %v", c.xs, got, panicked, c.want, c.panic)
		}
	}
}

var sinkProduct int64

func TestProductDoesNotAllocate(t *testing.T) {
	a, b, c := int64(3), int64(5), int64(7)
	allocs := testing.AllocsPerRun(100, func() {
		sinkProduct = Product(a, b, c)
		a++
	})
	if allocs != 0 {
		t.Fatalf("Product allocates %v times per call", allocs)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{10, 5, 2}, {11, 5, 3}, {1, 5, 1}, {5, 5, 1}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Fatalf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(3, 7) != 7 || Max(7, 3) != 7 {
		t.Fatal("Max broken")
	}
	if Min(3, 7) != 3 || Min(7, 3) != 3 {
		t.Fatal("Min broken")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{512, "512B"},
		{1 << 10, "1.00KB"},
		{320 << 20, "320.00MB"},
		{3 << 30, "3.00GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.b); got != c.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestPermutations(t *testing.T) {
	p3 := Permutations(3)
	if len(p3) != 6 {
		t.Fatalf("Permutations(3) returned %d, want 6", len(p3))
	}
	seen := map[[3]int]bool{}
	for _, p := range p3 {
		var key [3]int
		copy(key[:], p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
	if len(Permutations(0)) != 1 {
		t.Fatal("Permutations(0) should contain the empty permutation")
	}
}

func TestSplitsProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int64(raw%2048) + 1
		for _, s := range Splits(n) {
			if s.Inner*s.Outer != n || s.Inner < 1 || s.Outer < 1 {
				return false
			}
		}
		return len(Splits(n)) == len(Divisors(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// divisorsByTrial is the O(√n) trial-division loop Divisors replaced,
// kept as the reference its factorization-based output must reproduce.
func divisorsByTrial(n int64) []int64 {
	var small, large []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if q := n / d; q != d {
				large = append(large, q)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

func TestDivisorsMatchTrialDivision(t *testing.T) {
	check := func(n int64) {
		got, want := Divisors(n), divisorsByTrial(n)
		if !slices.Equal(got, want) {
			t.Fatalf("Divisors(%d) = %v, want %v", n, got, want)
		}
	}
	for n := int64(1); n <= 100000; n++ {
		check(n)
	}
	// Highly composite and smooth extents, and products of two primes
	// just above the trial-division bound.
	for _, n := range []int64{
		963761198400, 97821761637600, 1 << 40, 3486784401, 257 * 257, 257 * 263,
		65521 * 65519, 4294967291 * 3, 1000003 * 1000033,
	} {
		check(n)
	}
}

// TestDivisorsAdversarial covers extents the trial loop could not size in
// bounded time (or at all: d*d overflows near MaxInt64), against their
// known factorizations.
func TestDivisorsAdversarial(t *testing.T) {
	const (
		p61 = 2305843009213693951 // 2^61 - 1, prime
		p62 = 4611686018427387847 // 2^62 - 57, prime
		q61 = 1518500213          // largest prime with q61² < 2^61
		q62 = 2147483647          // 2^31 - 1, prime; q62² < 2^62
		r62 = 2147483629          // prime just below q62
	)
	cases := []struct {
		n       int64
		factors map[int64]int
	}{
		{p61, map[int64]int{p61: 1}},
		{p62, map[int64]int{p62: 1}},
		{2 * p61, map[int64]int{2: 1, p61: 1}},
		{q61 * q61, map[int64]int{q61: 2}},
		{q62 * q62, map[int64]int{q62: 2}},
		{q62 * r62, map[int64]int{q62: 1, r62: 1}},
		{math.MaxInt64, map[int64]int{7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1}},
		{1 << 62, map[int64]int{2: 62}},
		{3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 2, map[int64]int{
			2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1, 29: 1, 31: 1, 37: 1, 41: 1, 43: 1, 47: 1}},
	}
	for _, c := range cases {
		start := time.Now()
		got := Divisors(c.n)
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Errorf("Divisors(%d) took %v", c.n, el)
		}
		want := []int64{1}
		for p, e := range c.factors {
			m := len(want)
			pk := int64(1)
			for i := 0; i < e; i++ {
				pk *= p
				for _, d := range want[:m] {
					want = append(want, d*pk)
				}
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Divisors(%d): %d divisors %v..., want %d %v...", c.n, len(got), got[:min(len(got), 8)], len(want), want[:min(len(want), 8)])
		}
	}
}

// BenchmarkDivisors sizes every extent up to 2^16 — the range every
// benchmark workload's rank shapes fall in.
func BenchmarkDivisors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := int64(1); n <= 1<<16; n += 97 {
			Divisors(n)
		}
	}
}

// BenchmarkDivisorsPow2 sizes the power-of-two extents of the GPT-3 and
// Fig. 12/13 workloads.
func BenchmarkDivisorsPow2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := int64(1); n <= 1<<16; n *= 2 {
			Divisors(n)
		}
	}
}

// BenchmarkThreeSplits enumerates the three-level factorizations of the
// extents the fusion templates split.
func BenchmarkThreeSplits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int64{4096, 16384, 12288, 2048, 65536, 3 * 5 * 7 * 11 * 13} {
			ThreeSplits(n)
		}
	}
}
