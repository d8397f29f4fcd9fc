package mapping

import (
	"testing"

	"repro/internal/einsum"
	"repro/internal/shape"
)

func TestValidate(t *testing.T) {
	g := einsum.GEMM("g", 8, 4, 2)
	m := &Mapping{
		Splits: map[string]shape.Split{
			"M": {Inner: 2, Outer: 4},
			"K": {Inner: 4, Outer: 1},
			"N": {Inner: 1, Outer: 2},
		},
		OuterOrder: []string{"M", "K", "N"},
	}
	if err := m.Validate(g); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}

	bad := m.Clone()
	bad.Splits["M"] = shape.Split{Inner: 3, Outer: 3}
	if err := bad.Validate(g); err == nil {
		t.Fatal("imperfect factorization accepted")
	}

	bad = m.Clone()
	bad.OuterOrder = []string{"M", "M", "N"}
	if err := bad.Validate(g); err == nil {
		t.Fatal("repeated outer loop accepted")
	}

	bad = m.Clone()
	delete(bad.Splits, "K")
	if err := bad.Validate(g); err == nil {
		t.Fatal("missing split accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := &Mapping{
		Splits:     map[string]shape.Split{"M": {Inner: 2, Outer: 4}},
		OuterOrder: []string{"M"},
	}
	c := m.Clone()
	c.Splits["M"] = shape.Split{Inner: 8, Outer: 1}
	c.OuterOrder[0] = "X"
	if m.Splits["M"].Inner != 2 || m.OuterOrder[0] != "M" {
		t.Fatal("Clone shares state with the original")
	}
}

func TestSpaceVisitsAllMappings(t *testing.T) {
	g := einsum.GEMM("g", 4, 2, 2) // divisors: 3, 2, 2
	var count int64
	seen := map[string]bool{}
	Space(g, func(m *Mapping) {
		count++
		if err := m.Validate(g); err != nil {
			t.Fatalf("Space emitted invalid mapping: %v", err)
		}
		key := m.String()
		if seen[key] {
			t.Fatalf("Space emitted duplicate mapping %s", key)
		}
		seen[key] = true
	})
	want := SpaceSize(g)
	if count != want {
		t.Fatalf("Space visited %d mappings, SpaceSize predicts %d", count, want)
	}
	if count == 0 {
		t.Fatal("empty mapspace")
	}
}

func TestSpaceSizeSmallCase(t *testing.T) {
	// GEMM 2x2x2: each rank has splits (1,2) and (2,1).
	// Tilings by active-loop count: all-inner (0 active, 1 perm),
	// 3 with one active (1 perm each), 3 with two active (2 perms),
	// 1 with three active (6 perms) => 1 + 3 + 6 + 6 = 16.
	g := einsum.GEMM("g", 2, 2, 2)
	if got := SpaceSize(g); got != 16 {
		t.Fatalf("SpaceSize = %d, want 16", got)
	}
}

func TestSpaceReusesMappingValue(t *testing.T) {
	// Documented contract: visitors must Clone to retain.
	g := einsum.GEMM("g", 2, 2, 2)
	var first *Mapping
	var mutated bool
	Space(g, func(m *Mapping) {
		if first == nil {
			first = m
			return
		}
		if m == first {
			mutated = true
		}
	})
	if !mutated {
		t.Fatal("expected Space to reuse the Mapping value across visits")
	}
}

func TestTileSizes(t *testing.T) {
	m := &Mapping{
		Splits: map[string]shape.Split{
			"M": {Inner: 2, Outer: 4},
			"K": {Inner: 4, Outer: 1},
		},
		OuterOrder: []string{"M", "K"},
	}
	ts := m.TileSizes()
	if ts["M"] != 2 || ts["K"] != 4 {
		t.Fatalf("TileSizes = %v", ts)
	}
}

func TestStringFormat(t *testing.T) {
	m := &Mapping{
		Splits: map[string]shape.Split{
			"M": {Inner: 2, Outer: 4},
			"K": {Inner: 4, Outer: 2},
		},
		OuterOrder: []string{"K", "M"},
	}
	s := m.String()
	want := "for k1 in [0,2) / for m1 in [0,4) | buf: K0=4 M0=2"
	if s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

// TestVisitTilingsReduce checks the odometer's incremental distance to
// the reduction, and its incremental index of the image under a rank
// permutation, against a per-tiling decode, over every sub-range of a
// small imperfect space with reductions on two of its three ranks, a
// permutation swapping those two, and floors below, at and above the
// range start.
func TestVisitTilingsReduce(t *testing.T) {
	en := NewImperfectEnum(einsum.GEMM("g", 12, 6, 12), 3)
	swap := []int{2, 1, 0}
	skip := Skip{Reduce: make([][]int, 3), Perms: [][]int{swap}}
	for _, i := range []int{0, 2} {
		skip.Reduce[i] = make([]int, len(en.Options(i)))
		for j := range skip.Reduce[i] {
			skip.Reduce[i][j] = j - j%(i+2)
		}
	}
	weight := []int64{int64(len(en.Options(1)) * len(en.Options(2))), int64(len(en.Options(2))), 1}
	n := en.Tilings()
	for lo := int64(0); lo <= n; lo++ {
		for hi := lo; hi <= n; hi += 7 {
			for _, floor := range []int64{0, lo - 5, lo, lo + 5} {
				flat := lo
				en.VisitTilings(lo, hi, skip, floor, func(splits []shape.Split, skipped bool) {
					var red, image, stride int64 = 0, 0, 1
					rem := flat
					for i := 2; i >= 0; i-- {
						k := int64(len(en.Options(i)))
						j := int(rem % k)
						rem /= k
						if splits[i] != en.Options(i)[j] {
							t.Fatalf("[%d, %d) tiling %d rank %d: split %v, want %v", lo, hi, flat, i, splits[i], en.Options(i)[j])
						}
						image += int64(j) * weight[swap[i]]
						if skip.Reduce[i] != nil {
							j = skip.Reduce[i][j]
						}
						red += int64(j) * stride
						stride *= k
					}
					if want := red != flat && red >= floor || image < flat && image >= floor; skipped != want {
						t.Fatalf("[%d, %d) floor %d tiling %d (reduction %d, image %d): skipped %v, want %v",
							lo, hi, floor, flat, red, image, skipped, want)
					}
					flat++
				})
				if flat != hi {
					t.Fatalf("[%d, %d): visited up to %d", lo, hi, flat)
				}
			}
		}
	}
}
