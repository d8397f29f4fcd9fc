// Package stat holds the order statistics orobench reports: medians,
// quartiles computed the way Python's statistics.quantiles(n=4) computes
// them, nearest-rank percentiles, and the rule that picks which tail
// percentile a sample supports.
package stat

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (the mean of the middle two for an even
// count), or 0 for an empty slice.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads orobench prints match the ones a Python script computes from the
// same values. Fewer than two values yield that value (or 0) three times.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		// j is clamped to [1, n-1] before delta is taken, as Python does,
		// so very small samples extrapolate past their extremes.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p percent of the sample at or below
// it. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n values.
func rank(n int, p float64) int {
	// The epsilon keeps float rounding (99.9% of 10000 is not exactly
	// 9990 in binary) from pushing an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailLadder lists the percentiles TailPercentile chooses from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// MinBeyond is how many samples must lie above a percentile before a
// sample is said to support it.
const MinBeyond = 10

// TailPercentile returns the highest percentile of the ladder p50, p75,
// p90, p95, p99, p99.9 that n samples support: at least MinBeyond samples
// rank above it. ok is false when not even the median is supported.
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= MinBeyond {
			return p, true
		}
	}
	return 0, false
}
