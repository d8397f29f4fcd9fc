// Package shape provides small integer and size utilities used throughout
// the Orojenesis flow: divisor enumeration for the perfect-factor tilings
// the paper's mapspace is built from (Sec. III-A — the source of the
// step pattern in every ski-slope figure), two-level factorizations of
// rank shapes, and human-readable byte formatting for reports.
package shape

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Divisors returns all positive divisors of n in ascending order.
// n must be >= 1; Divisors panics otherwise because a rank shape of zero
// or a negative bound is always a programming error in this code base.
//
// The divisors are generated from n's prime factorization, so the cost
// is bounded for every int64: trial division by the primes below 256
// settles any n < 257², and a larger cofactor is tested with Miller–Rabin
// and split with Pollard's rho. A prime extent near 2^62 takes
// microseconds, where trial division up to √n took seconds.
func Divisors(n int64) []int64 {
	if n < 1 {
		panic(fmt.Sprintf("shape: Divisors(%d): argument must be >= 1", n))
	}
	var buf [15]primePower // 2·3·5·…·47 (15 primes) is the most an int64 has
	fs := factor(uint64(n), buf[:0])
	count := 1
	for _, f := range fs {
		count *= f.e + 1
	}
	divs := make([]int64, 1, count)
	divs[0] = 1
	for _, f := range fs {
		m := len(divs)
		pk := int64(1)
		for e := 0; e < f.e; e++ {
			pk *= int64(f.p)
			for _, d := range divs[:m] {
				divs = append(divs, d*pk)
			}
		}
	}
	slices.Sort(divs)
	return divs
}

// primePower is one prime factor p^e of a factorization.
type primePower struct {
	p uint64
	e int
}

// smallPrimes are the primes below 256, the trial divisors of factor.
var smallPrimes = func() []uint64 {
	var ps []uint64
	for n := uint64(2); n < 256; n++ {
		prime := true
		for _, p := range ps {
			if n%p == 0 {
				prime = false
				break
			}
		}
		if prime {
			ps = append(ps, n)
		}
	}
	return ps
}()

// factor appends the prime factorization of n >= 1 to fs, one entry per
// distinct prime.
func factor(n uint64, fs []primePower) []primePower {
	for _, p := range smallPrimes {
		if p*p > n {
			break
		}
		if n%p == 0 {
			e := 0
			for n%p == 0 {
				n /= p
				e++
			}
			fs = append(fs, primePower{p, e})
		}
	}
	switch {
	case n == 1:
		return fs
	case n < 257*257:
		// No prime factor below 256 and no room for two above it.
		return append(fs, primePower{n, 1})
	}
	return factorLarge(n, fs)
}

// factorLarge appends the factorization of n, which has no prime factor
// below 256, splitting composites with Pollard's rho.
func factorLarge(n uint64, fs []primePower) []primePower {
	if n == 1 {
		return fs
	}
	if isPrime(n) {
		for i := range fs {
			if fs[i].p == n {
				fs[i].e++
				return fs
			}
		}
		return append(fs, primePower{n, 1})
	}
	d := n
	for c := uint64(1); d == n; c++ {
		d = rho(n, c)
	}
	return factorLarge(n/d, factorLarge(d, fs))
}

// mulMod returns a·b mod m for a, b < m.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi, lo, m)
	return r
}

// powMod returns a^e mod m for a < m.
func powMod(a, e, m uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulMod(r, a, m)
		}
		a = mulMod(a, a, m)
	}
	return r
}

// isPrime is the Miller–Rabin test for odd n > 256; with the first twelve
// primes as witnesses it is exact for every n below 3.3·10^24.
func isPrime(n uint64) bool {
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)
	for _, a := range smallPrimes[:12] {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 1; i < s && composite; i++ {
			x = mulMod(x, x, n)
			composite = x != n-1
		}
		if composite {
			return false
		}
	}
	return true
}

// rho looks for a nontrivial factor of the odd composite n with Brent's
// variant of Pollard's rho over x² + c, taking one gcd per batch of 128
// steps. It returns n when this c fails; the caller retries with another.
func rho(n, c uint64) uint64 {
	const batch = 128
	next := func(x uint64) uint64 {
		x = mulMod(x, x, n) + c
		if x >= n {
			x -= n
		}
		return x
	}
	diff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	y, q, g := uint64(2), uint64(1), uint64(1)
	var x, ys uint64
	for r := 1; g == 1; r *= 2 {
		x = y
		for i := 0; i < r; i++ {
			y = next(y)
		}
		for k := 0; k < r && g == 1; k += batch {
			ys = y
			for i := 0; i < batch && i < r-k; i++ {
				y = next(y)
				q = mulMod(q, diff(x, y), n)
			}
			g = gcd(q, n)
		}
	}
	if g == n {
		// The batch overshot: redo it one step at a time.
		for g = 1; g == 1; {
			ys = next(ys)
			g = gcd(diff(x, ys), n)
		}
	}
	return g
}

// gcd is Euclid's greatest common divisor.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// MulCount returns the product of two non-negative counts, and false
// when it does not fit an int64 — the check that sizes a mixed-radix
// index space one radix at a time without wrapping.
func MulCount(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// Split is a two-level perfect factorization of a rank shape: the rank is
// tiled into an Inner (buffer-resident) tile iterated Outer times, with
// Inner*Outer equal to the full shape.
type Split struct {
	Inner int64 // buffer-level tile size
	Outer int64 // backing-store-level loop bound
}

// Splits returns every perfect two-level factorization of n, ordered by
// ascending inner tile size.
func Splits(n int64) []Split {
	divs := Divisors(n)
	out := make([]Split, len(divs))
	for i, d := range divs {
		out[i] = Split{Inner: d, Outer: n / d}
	}
	return out
}

// ThreeSplit is a three-level perfect factorization used by the fusion
// templates (e.g. K0/K1/K2 in the GEMM FFMT): Full = L0*L1*L2.
type ThreeSplit struct {
	L0, L1, L2 int64
}

// ThreeSplits returns every perfect three-level factorization of n.
func ThreeSplits(n int64) []ThreeSplit {
	var out []ThreeSplit
	for _, d0 := range Divisors(n) {
		rest := n / d0
		for _, d1 := range Divisors(rest) {
			out = append(out, ThreeSplit{L0: d0, L1: d1, L2: rest / d1})
		}
	}
	return out
}

// Product multiplies a slice of bounds, panicking on overflow past 2^62 or
// on a negative factor; a zero factor reached first yields 0. Access counts
// in this code base stay far below 2^62, but a silent wrap would be
// disastrous for a bounds tool, so we check — with one widening multiply
// per factor, and without letting xs escape, so calls do not allocate.
func Product(xs ...int64) int64 {
	p := int64(1)
	for _, x := range xs {
		if x == 0 {
			return 0
		}
		hi, lo := bits.Mul64(uint64(p), uint64(x))
		if hi != 0 || lo > 1<<62 {
			panic(fmt.Sprintf("shape: Product overflow: %v", append([]int64(nil), xs...)))
		}
		p = int64(lo)
	}
	return p
}

// CeilDiv returns ceil(a/b) for positive integers.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("shape: CeilDiv by %d", b))
	}
	return (a + b - 1) / b
}

// Max returns the larger of a and b.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxInt returns the larger of two ints.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FormatBytes renders a byte count with binary-prefix units, matching the
// axis labels used in the paper's figures (KB = 2^10, MB = 2^20, ...).
func FormatBytes(b int64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
	)
	switch {
	case b >= gb:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(gb))
	case b >= mb:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(mb))
	case b >= kb:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(kb))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Factorial returns n! for n >= 0: the number of orders of n loops.
func Factorial(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// Permutations returns all permutations of the integers [0, n). The result
// is deterministic: lexicographic order. n must be small (<= 8).
func Permutations(n int) [][]int {
	if n < 0 || n > 8 {
		panic(fmt.Sprintf("shape: Permutations(%d): n must be in [0, 8]", n))
	}
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			p := make([]int, len(prefix))
			copy(p, prefix)
			out = append(out, p)
			return
		}
		for i, v := range rest {
			nr := make([]int, 0, len(rest)-1)
			nr = append(nr, rest[:i]...)
			nr = append(nr, rest[i+1:]...)
			rec(append(prefix, v), nr)
		}
	}
	rec(nil, base)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
