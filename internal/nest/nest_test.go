package nest

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/shape"
)

func relOf(ranks ...string) func(string) bool {
	set := map[string]bool{}
	for _, r := range ranks {
		set[r] = true
	}
	return func(r string) bool { return set[r] }
}

func TestIterationsProductRule(t *testing.T) {
	// Fig. 6 shape: loops M, K, N outermost first. A tensor relevant to
	// (M, K) stops at K; one relevant to (K, N) or (M, N) stops at N.
	loops := []Loop{{"M", 2}, {"K", 3}, {"N", 5}}
	cases := []struct {
		rel  func(string) bool
		want int64
	}{
		{relOf("M", "K"), 2 * 3},
		{relOf("K", "N"), 2 * 3 * 5},
		{relOf("M", "N"), 2 * 3 * 5},
		{relOf("M"), 2},
		{relOf(), 1},
	}
	for i, c := range cases {
		if got := Iterations(loops, c.rel); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestBoundOneLoopsTransparent(t *testing.T) {
	// Bound-1 loops neither terminate the scan nor contribute a factor.
	loops := []Loop{{"M", 4}, {"K", 1}, {"N", 1}}
	if got := Iterations(loops, relOf("K", "N")); got != 1 {
		t.Fatalf("trailing bound-1 relevant loops: got %d, want 1", got)
	}
	loops = []Loop{{"M", 4}, {"K", 1}, {"N", 3}}
	if got := Iterations(loops, relOf("K", "N")); got != 12 {
		t.Fatalf("interior bound-1 loop should not contribute: got %d, want 12", got)
	}
}

func TestEmptyNest(t *testing.T) {
	if got := Iterations(nil, relOf("M")); got != 1 {
		t.Fatalf("empty nest: got %d, want 1", got)
	}
}

func TestCompositeNestMatchesSingleLevel(t *testing.T) {
	// A composite outer+mid nest is just one longer nest: concatenating
	// level nests must equal evaluating the flattened loop list.
	outer := []Loop{{"M", 2}, {"N", 4}}
	mid := []Loop{{"K", 3}, {"M", 5}}
	composite := append(append([]Loop{}, outer...), mid...)
	if got := Iterations(composite, relOf("M")); got != 2*4*3*5 {
		t.Fatalf("composite nest: got %d, want %d", got, 2*4*3*5)
	}
	if got := Iterations(composite, relOf("N")); got != 2*4 {
		t.Fatalf("composite nest, outer-only tensor: got %d, want %d", got, 2*4)
	}
}

func TestIterationsGroupedOverridesInnermostOnly(t *testing.T) {
	loops := []Loop{{"H", 8}, {"M", 2}}
	// Tensor relevant to both; the override halves the innermost factor
	// (e.g. 2 heads per group sharing a weight tile) but must not touch H.
	got := IterationsGrouped(loops, relOf("H", "M"), func(l Loop) int64 {
		if l.Rank != "M" {
			t.Fatalf("override consulted for non-innermost loop %q", l.Rank)
		}
		return 1
	})
	if got != 8 {
		t.Fatalf("grouped innermost: got %d, want 8", got)
	}
	// When the grouped rank is NOT innermost-relevant it contributes its
	// full bound: put H innermost instead.
	loops = []Loop{{"M", 2}, {"H", 8}}
	got = IterationsGrouped(loops, relOf("H", "M"), func(l Loop) int64 {
		if l.Rank != "H" {
			t.Fatalf("override consulted for %q, want innermost H", l.Rank)
		}
		return 4
	})
	if got != 2*4 {
		t.Fatalf("grouped innermost H: got %d, want 8", got)
	}
}

// TestMinOverOrdersMatchesEnumeration checks the order DP against the
// product rule applied to every order, on random nests of up to six
// iterating loops with random tensor relevance and per-tensor weights.
func TestMinOverOrdersMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var s OrderScratch[int64]
	for trial := 0; trial < 300; trial++ {
		k := rng.IntN(7)
		bounds := make([]int64, k)
		names := make([]string, k)
		for j := range bounds {
			bounds[j] = 2 + rng.Int64N(5)
			names[j] = fmt.Sprint("L", j)
		}
		tensors := 1 + rng.IntN(4)
		rel := make([]uint64, tensors)
		weight := make([]int64, tensors)
		var once int64
		for i := range rel {
			rel[i] = rng.Uint64() & (1<<k - 1)
			weight[i] = 1 + rng.Int64N(9)
			if rel[i] == 0 {
				once += weight[i]
			}
		}
		got := MinOverOrders(&s, bounds, rel, once,
			func(acc int64, t, r int, above int64) int64 { return acc + weight[t]*above*bounds[r] },
			func(a, b int64) int64 { return min(a, b) })

		want := int64(-1)
		for _, p := range shape.Permutations(k) {
			loops := make([]Loop, k)
			for i, j := range p {
				loops[i] = Loop{Rank: names[j], Bound: bounds[j]}
			}
			var total int64
			for i := range rel {
				total += weight[i] * Iterations(loops, func(r string) bool {
					for j, n := range names {
						if n == r {
							return rel[i]>>j&1 == 1
						}
					}
					return false
				})
			}
			if want < 0 || total < want {
				want = total
			}
		}
		if got != want {
			t.Fatalf("trial %d: bounds %v rel %v weight %v: DP %d, enumeration %d", trial, bounds, rel, weight, got, want)
		}
	}
}

func TestLoopMask(t *testing.T) {
	// Ranks 1, 3 and 4 iterate; rank mask {0, 3, 4} maps to loops {1, 2}.
	if got := LoopMask(1<<0|1<<3|1<<4, []int{1, 3, 4}); got != 0b110 {
		t.Fatalf("LoopMask = %b, want 110", got)
	}
}
