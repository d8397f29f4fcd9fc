package stat

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := TailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < MinBeyond {
			t.Errorf("TailPercentile(%d) = p%v leaves only %d samples beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	if got := Percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := Percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins the values Python 3's
// statistics.quantiles(data, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v; want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}
