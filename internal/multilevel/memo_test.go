package multilevel

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/einsum"
	"repro/internal/shape"
)

// TestThreeSplitsOrder pins the keyed rank options to shape.ThreeSplits:
// the same splits in the same order, so the flat index space is the one
// shard plans divide, and key terms that are the divisor indices of L0
// and L0·L1.
func TestThreeSplitsOrder(t *testing.T) {
	sizes := []int64{1, 2, 12, 97, 512, 5040, 1 << 40}
	e := &einsum.Einsum{Name: "ranks", ElementSize: einsum.DefaultElementSize}
	for i, n := range sizes {
		name := fmt.Sprintf("R%d", i)
		e.Ranks = append(e.Ranks, einsum.Rank{Name: name, Shape: n})
		e.Tensors = append(e.Tensors, einsum.Tensor{Name: "T" + name, Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: name, Coeff: 1}}}}})
	}
	e.Tensors[len(e.Tensors)-1].Output = true
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	options, combos, err := threeSplits(e)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1)
	stride := int64(1)
	for i := len(sizes) - 1; i >= 0; i-- {
		n := sizes[i]
		ref := shape.ThreeSplits(n)
		want *= int64(len(ref))
		divs := shape.Divisors(n)
		if len(options[i]) != len(ref) {
			t.Fatalf("rank %d (%d): %d options, shape.ThreeSplits has %d", i, n, len(options[i]), len(ref))
		}
		for j, o := range options[i] {
			if o.ThreeSplit != ref[j] {
				t.Fatalf("rank %d (%d) option %d = %+v, shape.ThreeSplits has %+v", i, n, j, o.ThreeSplit, ref[j])
			}
			if o.k0%stride != 0 || o.kT%stride != 0 || divs[o.k0/stride] != o.L0 || divs[o.kT/stride] != o.L0*o.L1 {
				t.Fatalf("rank %d (%d) option %+v: keys (%d, %d) at stride %d", i, n, o.ThreeSplit, o.k0, o.kT, stride)
			}
		}
		stride *= int64(len(divs))
	}
	if combos != want {
		t.Fatalf("space %d, want %d", combos, want)
	}
}

// TestMidInactiveTensorsShareFootprints checks the lemma that makes (T, M)
// an exact outer-DP key: over every combination of the reference
// workloads, a tensor with no iterating relevant mid loop has the same L1
// and L2 footprint.
func TestMidInactiveTensorsShareFootprints(t *testing.T) {
	for _, e := range memoWorkloads(t) {
		options, combos, err := threeSplits(e)
		if err != nil {
			t.Fatal(err)
		}
		c := newCombo(e)
		idx := make([]int, len(e.Ranks))
		var checked int
		for flat := int64(0); flat < combos; flat++ {
			for i, j := range idx {
				c.splits[i] = options[i][j].ThreeSplit
			}
			c.l1Elems()
			m := c.midLoops()
			for ti := range e.Tensors {
				if m>>ti&1 == 0 {
					continue
				}
				checked++
				if c.fp0[ti] != c.fp1[ti] {
					t.Fatalf("%s %v: tensor %s has no mid-active rank but fp0 %d != fp1 %d",
						e.Name, c.splits, e.Tensors[ti].Name, c.fp0[ti], c.fp1[ti])
				}
			}
			for i := len(idx) - 1; i >= 0; i-- {
				if idx[i]++; idx[i] < len(options[i]) {
					break
				}
				idx[i] = 0
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no mid-inactive tensor in any combination", e.Name)
		}
	}
}

// memoWorkloads returns the reference test's workloads.
func memoWorkloads(t *testing.T) []*einsum.Einsum {
	t.Helper()
	conv := &einsum.Einsum{
		Name:  "conv1d",
		Ranks: []einsum.Rank{{Name: "K", Shape: 2}, {Name: "P", Shape: 6}, {Name: "R", Shape: 3}},
		Tensors: []einsum.Tensor{
			{Name: "I", Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "P", Coeff: 2}, {Rank: "R", Coeff: 2}}}}},
			{Name: "W", Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "K", Coeff: 1}}}, {Terms: []einsum.Term{{Rank: "R", Coeff: 1}}}}},
			{Name: "O", Output: true, Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "K", Coeff: 1}}}, {Terms: []einsum.Term{{Rank: "P", Coeff: 1}}}}},
		},
		ElementSize: einsum.DefaultElementSize,
	}
	if err := conv.Validate(); err != nil {
		t.Fatal(err)
	}
	return []*einsum.Einsum{
		einsum.GEMM("gemm", 16, 12, 8),
		einsum.GEMM("oblong", 64, 4, 18),
		einsum.GEMM("tie", 2, 4, 4),
		einsum.BMM("bmm", 2, 8, 6, 4),
		einsum.GroupedBMM("gbmm", 4, 2, 4, 6, 2),
		conv,
	}
}

// TestMemoEvictionParity checks that a worker's memo never changes a
// result: on GEMM 5040³, whose 216,000 divisor vectors far exceed any
// memo, a slice of about 1,000 combinations derived in one call — with
// the production memo and with a two-slot memo that evicts on nearly
// every combination — equals the Merge of single-index calls, each of
// which starts from a fresh memo. The slices start at the origin, cross a
// boundary of the middle rank and cross one of the first rank.
func TestMemoEvictionParity(t *testing.T) {
	e := einsum.GEMM("gemm5040", 5040, 5040, 5040)
	const l1 = 4 << 10
	options, space, err := threeSplits(e)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(len(options[2]))
	row := last * int64(len(options[1]))
	for _, lo := range []int64{0, 7*last - 480, space/2 + row - 500} {
		hi := lo + 1000
		t.Run(fmt.Sprintf("lo=%d", lo), func(t *testing.T) {
			singles := make([]*Result, 0, hi-lo)
			for i := lo; i < hi; i++ {
				r, err := DeriveRange(context.Background(), e, l1, i, i+1, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				singles = append(singles, r)
			}
			want, err := Merge(singles...)
			if err != nil {
				t.Fatal(err)
			}
			if want.Mappings == 0 || want.Mappings == (hi-lo)*36 {
				t.Fatalf("slice has %d mappings: it must mix L1-feasible and infeasible combinations", want.Mappings)
			}
			for _, slots := range []int{maxMemoSlots, 2} {
				for _, workers := range []int{1, 2} {
					got, err := deriveRange(context.Background(), e, l1, lo, hi, Options{Workers: workers}, slots)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%d slots, %d workers", slots, workers)
					if g, w := got.DRAM.Canonical(), want.DRAM.Canonical(); g != w {
						t.Fatalf("%s: DRAM curve differs:\n got %s\nwant %s", where, g, w)
					}
					if g, w := got.L2.Canonical(), want.L2.Canonical(); g != w {
						t.Fatalf("%s: L2 curve differs:\n got %s\nwant %s", where, g, w)
					}
					if !reflect.DeepEqual(got.joint, want.joint) {
						t.Fatalf("%s: joint tables differ:\n got %v\nwant %v", where, got.joint, want.joint)
					}
					if got.Mappings != want.Mappings {
						t.Fatalf("%s: Mappings = %d, want %d", where, got.Mappings, want.Mappings)
					}
				}
			}
		})
	}
}

func TestMemoSlots(t *testing.T) {
	for _, tc := range []struct {
		items int64
		want  int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {1025, 1024}, {1 << 40, 1024}} {
		if got := memoSlots(tc.items, maxMemoSlots); got != tc.want {
			t.Errorf("memoSlots(%d) = %d, want %d", tc.items, got, tc.want)
		}
	}
	if got := memoSlots(5, 2); got != 2 {
		t.Errorf("memoSlots(5, 2) = %d, want 2", got)
	}
}

// TestDeriveRangeRejectsTooManyTensors pins the 64-tensor limit of the
// memo's outer-DP key, a per-tensor bit mask.
func TestDeriveRangeRejectsTooManyTensors(t *testing.T) {
	e := &einsum.Einsum{Name: "wide", Ranks: []einsum.Rank{{Name: "K", Shape: 2}}, ElementSize: einsum.DefaultElementSize}
	for i := 0; i < 65; i++ {
		e.Tensors = append(e.Tensors, einsum.Tensor{Name: fmt.Sprintf("T%d", i), Output: i == 64,
			Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "K", Coeff: 1}}}}})
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Derive(e, 1<<20, Options{}); err == nil {
		t.Fatal("derived a 65-tensor Einsum")
	}
	e.Tensors = e.Tensors[1:]
	if _, err := Derive(e, 1<<20, Options{}); err != nil {
		t.Fatalf("64 tensors: %v", err)
	}
}
