package bound_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
)

// randomEinsums draws small Einsums of every projection kind the
// dominance rules must leave exact: grouped and plain BMMs (a batch rank
// and a grouped one), strided and dilated convolutions, and parsed
// Einsums whose batch ranks sit after other ranks or beside affine dims,
// or whose every-tensor rank is strided or summed in one tensor.
func randomEinsums(rng *rand.Rand, n int) []*einsum.Einsum {
	pick := func(xs ...int64) int64 { return xs[rng.Intn(len(xs))] }
	var out []*einsum.Einsum
	for i := 0; len(out) < n; i++ {
		var e *einsum.Einsum
		switch i % 7 {
		case 0:
			h := pick(2, 4, 6, 8)
			g := pick(1, 2)
			if h%g != 0 {
				g = 1
			}
			e = einsum.GroupedBMM("gbmm", h, g, pick(4, 6, 12), pick(3, 8), pick(5, 8))
		case 1:
			e = einsum.BMM("bmm", pick(3, 4, 12), pick(4, 10), pick(2, 6), pick(8, 9))
		case 2:
			e = einsum.Conv2D("conv", einsum.ConvConfig{
				P: pick(3, 4, 6), Q: pick(2, 4), N: pick(2, 4), C: pick(2, 3),
				R: pick(1, 2, 3), S: pick(1, 3), T: pick(1, 2), D: pick(1, 2),
			})
		case 3:
			e = einsum.MustParse(fmt.Sprintf("Z[m,h,n] = A[m,h,k] * W[k,h,n] {M=%d,H=%d,K=%d,N=%d}",
				pick(4, 6), pick(2, 4, 9), pick(2, 5), pick(4, 8)))
		case 4:
			e = einsum.MustParse(fmt.Sprintf("Z[b,p,n] = A[b,2p+r,c] * W[b,c,n,r] {B=%d,P=%d,R=%d,C=%d,N=%d}",
				pick(2, 4), pick(3, 5), pick(2, 3), pick(2, 4), pick(2, 3)))
		case 5:
			// B is relevant to every tensor but strided in A: not a batch rank.
			e = einsum.MustParse(fmt.Sprintf("Z[b,m,n] = A[2b,m,k] * W[b,k,n] {B=%d,M=%d,K=%d,N=%d}",
				pick(3, 4, 6), pick(2, 4), pick(2, 3), pick(4, 5)))
		case 6:
			// B is relevant to every tensor but sums with R in A: not a batch rank.
			e = einsum.MustParse(fmt.Sprintf("Z[b,m] = A[b+r,m] * W[b,r] {B=%d,R=%d,M=%d}",
				pick(4, 6, 8), pick(2, 3), pick(2, 4)))
		}
		e.Name = fmt.Sprintf("e%d", i)
		out = append(out, e)
	}
	return out
}

// TestDeriveRangeMatchesReferenceOnEveryRange pins what a degraded merge
// relies on: a partial frontier is exact over its own range even when a
// tiling's dominating tiling lies below the range (a BMM's head splits,
// the most significant digit, and an imperfect rank's repeated outers),
// so the union over any subset of a cover is the frontier of the tilings
// it covers.
func TestDeriveRangeMatchesReferenceOnEveryRange(t *testing.T) {
	ws := []*einsum.Einsum{
		einsum.BMM("bmm", 32, 8, 4, 8),
		einsum.GroupedBMM("gbmm", 8, 2, 12, 8, 6),
		einsum.GEMM("gemm", 64, 48, 80),
	}
	for _, e := range ws {
		for _, opts := range []bound.Options{{}, {ChargeSpills: true}, {ImperfectExtra: 4}} {
			space, err := bound.Space(e, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int64{2, 3, 7} {
				for k := int64(0); k < n; k++ {
					lo, hi := k*space/n, (k+1)*space/n
					want, wantN := referenceDeriveRange(t, e, opts, lo, hi)
					r, err := bound.DeriveRange(context.Background(), e, opts, lo, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := r.Curve.Canonical(), want.Canonical(); g != w || r.Stats.MappingsEvaluated != wantN {
						t.Fatalf("%s %s [%d, %d) of %d: %d mappings, curve\n%s\nwant %d mappings, curve\n%s",
							e.Name, opts.Canonical(), lo, hi, space, r.Stats.MappingsEvaluated, g, wantN, w)
					}
				}
			}
		}
	}
}

// TestBMMIsHTimesGEMM is a metamorphic oracle for the Fig. 13 head sweep:
// a BMM's heads are independent GEMMs, so under the two exact-integer
// accountings its curve is the GEMM's with accesses and annotations
// multiplied by H and buffers unchanged.
func TestBMMIsHTimesGEMM(t *testing.T) {
	for _, h := range []int64{1, 2, 4, 8, 16, 32} {
		for _, opts := range []bound.Options{{}, {ChargeSpills: true}} {
			bmm := bound.Derive(einsum.BMM("bmm", h, 4096, 4096/h, 4096), opts).Curve
			gemm := bound.Derive(einsum.GEMM("gemm", 4096, 4096/h, 4096), opts).Curve
			var pts []pareto.Point
			for _, p := range gemm.Points() {
				pts = append(pts, pareto.Point{BufferBytes: p.BufferBytes, AccessBytes: h * p.AccessBytes})
			}
			want := pareto.FromPoints(pts)
			want.AlgoMinBytes, want.TotalOperandBytes = h*gemm.AlgoMinBytes, h*gemm.TotalOperandBytes
			if g, w := bmm.Canonical(), want.Canonical(); g != w {
				t.Fatalf("h=%d %s: BMM curve is not H x GEMM:\n got %s\nwant %s", h, opts.Canonical(), g, w)
			}
		}
	}
}

// TestElementSizeScalesBothAxes is a metamorphic oracle for the byte
// units: widening every element by a factor scales every point and both
// annotations by it exactly, under every accounting.
func TestElementSizeScalesBothAxes(t *testing.T) {
	ws := []*einsum.Einsum{
		einsum.GEMM("gemm", 96, 80, 72),
		einsum.BMM("bmm", 8, 64, 16, 64),
		einsum.GroupedBMM("gbmm", 8, 2, 32, 16, 24),
		einsum.Conv2D("conv", einsum.ConvConfig{P: 8, Q: 6, N: 8, C: 4, R: 3, S: 3, T: 2, D: 2}),
	}
	widen := func(e *einsum.Einsum, es int64) *einsum.Einsum {
		w := *e
		w.ElementSize = es
		return &w
	}
	for _, e := range ws {
		for _, opts := range []bound.Options{{}, {ChargeSpills: true}, {ImperfectExtra: 6}} {
			unit := bound.Derive(widen(e, 1), opts).Curve
			for _, es := range []int64{2, 3, 8} {
				var pts []pareto.Point
				for _, p := range unit.Points() {
					pts = append(pts, pareto.Point{BufferBytes: es * p.BufferBytes, AccessBytes: es * p.AccessBytes})
				}
				want := pareto.FromPoints(pts)
				want.AlgoMinBytes, want.TotalOperandBytes = es*unit.AlgoMinBytes, es*unit.TotalOperandBytes
				got := bound.Derive(widen(e, es), opts).Curve
				if g, w := got.Canonical(), want.Canonical(); g != w {
					t.Fatalf("%s %s element size %d: curve is not the 1-byte curve scaled:\n got %s\nwant %s",
						e.Name, opts.Canonical(), es, g, w)
				}
			}
		}
	}
}
