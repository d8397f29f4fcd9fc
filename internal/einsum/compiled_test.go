package einsum

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCompiledMatchesMapFootprint checks the rank-indexed footprints
// against the map-based reference on random tiles of identity, strided,
// dilated and grouped projections.
func TestCompiledMatchesMapFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, e := range []*Einsum{
		GEMM("gemm", 64, 48, 40),
		BMM("bmm", 8, 32, 16, 24),
		GroupedBMM("gbmm", 8, 4, 32, 16, 24),
		Conv2D("conv", ConvConfig{P: 14, Q: 12, N: 16, C: 8, R: 3, S: 5, T: 2, D: 2}),
	} {
		c := e.Compile()
		tile := make([]int64, len(e.Ranks))
		real := make([]float64, len(e.Ranks))
		named := map[string]int64{}
		for trial := 0; trial < 500; trial++ {
			for i, r := range e.Ranks {
				tile[i] = rng.Int63n(r.Shape) + 1
				real[i] = float64(tile[i])
				named[r.Name] = tile[i]
			}
			for ti := range e.Tensors {
				tn := &e.Tensors[ti]
				want := e.Footprint(tn, named)
				if got := c.Footprint(ti, tile); got != want {
					t.Fatalf("%s %s tile %v: Footprint %d, reference %d", e.Name, tn.Name, tile, got, want)
				}
				// On whole tiles the real-valued form differs only in
				// grouped dims (no ceiling), so it never exceeds Footprint.
				if got := c.MeanFootprint(ti, real); got > float64(want) {
					t.Fatalf("%s %s tile %v: MeanFootprint %v above %d", e.Name, tn.Name, tile, got, want)
				}
			}
		}
		for ti := range e.Tensors {
			tn := &e.Tensors[ti]
			if got, want := c.Size(ti), e.TensorSize(tn); got != want {
				t.Fatalf("%s %s: Size %d, TensorSize %d", e.Name, tn.Name, got, want)
			}
			for i, r := range e.Ranks {
				if got := c.Relevance(ti)>>i&1 == 1; got != tn.Relevant(r.Name) {
					t.Fatalf("%s %s rank %s: relevance %v", e.Name, tn.Name, r.Name, got)
				}
			}
		}
	}
}

// TestCompiledBatchAndGroupedRanks pins the batch-rank predicate: a rank
// every tensor indexes alone in exactly one coefficient-1, ungrouped dim.
func TestCompiledBatchAndGroupedRanks(t *testing.T) {
	cases := []struct {
		e              *Einsum
		batch, grouped string // rank names, in rank order
	}{
		{GEMM("gemm", 8, 8, 8), "", ""},
		{BMM("bmm", 4, 8, 8, 8), "H", ""},
		{GroupedBMM("gbmm", 8, 2, 8, 8, 8), "", "H"},
		{GroupedBMM("mha", 8, 8, 8, 8, 8), "H", ""}, // G = H: no divisor above 1
		{Conv2D("conv", ConvConfig{P: 4, Q: 4, N: 4, C: 4, R: 3, S: 3}), "", ""},
		// H in a two-term dim of A, and twice in W: neither is a batch rank.
		{MustParse("Z[h,m] = A[h+m,k] * W[h,k,h] {H=4,M=4,K=4}"), "", ""},
		// B indexed with coefficient 2 in A.
		{MustParse("Z[b,m] = A[2b,m] * W[b,m] {B=4,M=4}"), "M", ""},
	}
	for _, cs := range cases {
		c := cs.e.Compile()
		var batch, grouped string
		for i, r := range cs.e.Ranks {
			if c.Batch(i) {
				batch += r.Name
			}
			if c.Grouped(i) {
				grouped += r.Name
			}
		}
		if batch != cs.batch || grouped != cs.grouped {
			t.Errorf("%s: batch %q grouped %q, want %q and %q", cs.e, batch, grouped, cs.batch, cs.grouped)
		}
	}
}

// TestCompiledAutomorphisms pins which rank permutations map an Einsum
// onto itself (each rendered as the rank names the ranks become, in rank
// order), and which of them keep MeanFootprint's floating-point order.
// The negative cases each hinge on one part of the comparison: shapes, a
// coefficient paired with its rank, a grouped rank that must stay fixed,
// and the search budget.
func TestCompiledAutomorphisms(t *testing.T) {
	cases := []struct {
		e          *Einsum
		auto, keep string // comma-separated images; keep lists those KeepsFloatOrder admits
	}{
		{GEMM("square", 8, 8, 8), "NKM", "NKM"},
		{GEMM("mn", 8, 4, 8), "NKM", "NKM"},
		{GEMM("oblong", 8, 4, 6), "", ""},
		{BMM("bmm", 4, 8, 2, 8), "HNKM", ""}, // A[h,m,k] → [h,n,k] trades W's last two dims
		{Conv2D("conv", ConvConfig{P: 8, Q: 8, N: 4, C: 4, R: 3, S: 3, T: 2, D: 2}), "QPNCSR", ""},
		{Conv2D("rect", ConvConfig{P: 8, Q: 8, N: 4, C: 4, R: 3, S: 1}), "", ""},
		// Stride 2 along p only: p and q have equal shapes and dim widths,
		// but 2p+r cannot become 2q+s.
		{MustParse("B[p,q,n] = A[2p+r,q+s,c] * W[c,n,r,s] {P=4,Q=4,N=2,C=2,R=3,S=3}"), "", ""},
		// Swapping a and b maps X onto Y, but both ranks are grouped.
		{MustParse("Z[a,b] = X[a/2,b] * Y[a,b/2] {A=4,B=4}"), "", ""},
		// 7! candidate permutations: more than the search budget.
		{MustParse("Z[a,b,c,d,e,f,g] = X[a,b,c,d,e,f,g] * Y[a,b,c,d,e,f,g] {A=2,B=2,C=2,D=2,E=2,F=2,G=2}"), "", ""},
	}
	for _, cs := range cases {
		c := cs.e.Compile()
		var auto, keep []string
		for _, p := range c.Automorphisms() {
			img := ""
			for _, r := range p {
				img += cs.e.Ranks[r].Name
			}
			auto = append(auto, img)
			if c.KeepsFloatOrder(p) {
				keep = append(keep, img)
			}
		}
		if got := strings.Join(auto, ","); got != cs.auto {
			t.Errorf("%s: automorphisms %q, want %q", cs.e, got, cs.auto)
		}
		if got := strings.Join(keep, ","); got != cs.keep {
			t.Errorf("%s: float-order automorphisms %q, want %q", cs.e, got, cs.keep)
		}
	}
}
