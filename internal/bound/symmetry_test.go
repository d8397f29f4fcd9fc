package bound_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/snowcat"
)

// symmetryWorkloads are shrunk Fig. 12 convolutions and Fig. 13 BMMs, a
// grouped BMM, GEMMs and a single-channel dilated convolution whose
// symmetries Imperfect admits too, and randomEinsums each beside a copy
// with every rank's shape set to 4, which makes ranks of the same role
// interchangeable.
func symmetryWorkloads() []*einsum.Einsum {
	ws := []*einsum.Einsum{
		einsum.GEMM("gemm", 16, 8, 16),
		einsum.GEMM("gemm12", 12, 12, 12),
		einsum.GroupedBMM("gbmm", 8, 2, 16, 4, 16),
		einsum.MustParse("Z[p,q] = A[p+2r,q+2s] * W[r,s] {P=6,Q=6,R=3,S=3}"),
	}
	for _, cfg := range []einsum.ConvConfig{
		{P: 8, Q: 8, N: 4, C: 4, R: 1, S: 1},
		{P: 8, Q: 8, N: 4, C: 4, R: 3, S: 3},
		{P: 8, Q: 8, N: 4, C: 4, R: 3, S: 3, T: 2},
		{P: 8, Q: 8, N: 4, C: 4, R: 3, S: 3, D: 2},
	} {
		ws = append(ws, einsum.Conv2D("conv", cfg))
	}
	for _, h := range []int64{1, 4} {
		ws = append(ws, einsum.BMM("bmm", h, 16, 16/h, 16))
	}
	for _, e := range randomEinsums(rand.New(rand.NewSource(26)), 14) {
		u := *e
		u.Name += "-uniform"
		u.Ranks = slices.Clone(e.Ranks)
		for i := range u.Ranks {
			u.Ranks[i].Shape = 4
		}
		ws = append(ws, e, &u)
	}
	return ws
}

// TestRankSymmetryKeepsEveryPoint checks Lemma 3 tiling by tiling: for
// every tiling τ and every permutation π that snowcat.Skips admits under
// an accounting, MinCompact scores π(τ) exactly as it scores τ.
func TestRankSymmetryKeepsEveryPoint(t *testing.T) {
	accts := []snowcat.Accounting{snowcat.Perfect, snowcat.SpillCharged, snowcat.Imperfect}
	admitted := make([]int, len(accts))
	for _, e := range symmetryWorkloads() {
		ev := snowcat.NewEvaluator(e)
		for a, acct := range accts {
			en := mapping.NewEnum(e)
			if acct == snowcat.Imperfect {
				en = mapping.NewImperfectEnum(e, 3)
			}
			perms := snowcat.Skips(e, acct, en).Perms
			admitted[a] += len(perms)
			image := make([]shape.Split, len(e.Ranks))
			en.VisitTilings(0, en.Tilings(), mapping.Skip{}, 0, func(splits []shape.Split, _ bool) {
				buf, acc := ev.MinCompact(acct, splits)
				for _, p := range perms {
					for r, s := range splits {
						image[p[r]] = s
					}
					if b, a := ev.MinCompact(acct, image); b != buf || a != acc {
						t.Fatalf("%s under %d: tiling %v scores (%d, %d), its image %v under %v scores (%d, %d)",
							e, acct, splits, buf, acc, image, p, b, a)
					}
				}
			})
		}
	}
	for a, acct := range accts {
		if admitted[a] == 0 {
			t.Errorf("no permutation admitted under %d: the check ran on nothing", acct)
		}
	}
}

// TestRankRelabellingKeepsCurve is a metamorphic oracle for the rank
// symmetry skip: renaming the ranks and listing them in another order
// changes the enumeration order, and with it which tiling of each orbit
// is scored, but not the curve or the mapping count.
func TestRankRelabellingKeepsCurve(t *testing.T) {
	for _, e := range symmetryWorkloads() {
		n := len(e.Ranks)
		reversed, rotated := make([]int, n), make([]int, n)
		for i := range reversed {
			reversed[i], rotated[i] = n-1-i, (i+1)%n
		}
		for _, opts := range []bound.Options{{}, {ChargeSpills: true}, {ImperfectExtra: 3}} {
			want := bound.Derive(e, opts)
			for _, order := range [][]int{reversed, rotated} {
				got := bound.Derive(relabel(e, order), opts)
				if g, w := got.Curve.Canonical(), want.Curve.Canonical(); g != w {
					t.Fatalf("%s %s ranks in order %v: curve\n%s\nwant\n%s", e, opts.Canonical(), order, g, w)
				}
				if g, w := got.Stats.MappingsEvaluated, want.Stats.MappingsEvaluated; g != w {
					t.Fatalf("%s %s ranks in order %v: %d mappings, want %d", e, opts.Canonical(), order, g, w)
				}
			}
		}
	}
}

// TestDeriveRangeFloorFeedsTheFrontier pins the floor argument the shard
// runs rely on: checkpoint blocks derived with the range start as floor,
// each of which may skip a tiling whose witness lies in an earlier block,
// union to the exact frontier of the range.
func TestDeriveRangeFloorFeedsTheFrontier(t *testing.T) {
	ws := []*einsum.Einsum{
		einsum.BMM("bmm", 8, 16, 4, 16),
		einsum.Conv2D("conv", einsum.ConvConfig{P: 8, Q: 8, N: 4, C: 4, R: 3, S: 3}),
		einsum.GEMM("gemm", 24, 12, 24),
	}
	for _, e := range ws {
		for _, opts := range []bound.Options{{}, {ChargeSpills: true}, {ImperfectExtra: 4}} {
			space, err := bound.Space(e, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, floor := range []int64{0, space / 3} {
				want, wantN := referenceDeriveRange(t, e, opts, floor, space)
				var blocks []*pareto.Curve
				var n int64
				for lo := floor; lo < space; lo += 37 {
					r, err := bound.DeriveRange(context.Background(), e, opts, floor, lo, min(lo+37, space))
					if err != nil {
						t.Fatal(err)
					}
					blocks = append(blocks, r.Curve)
					n += r.Stats.MappingsEvaluated
				}
				got := pareto.Union(blocks...)
				got.AlgoMinBytes, got.TotalOperandBytes = want.AlgoMinBytes, want.TotalOperandBytes
				if g, w := got.Canonical(), want.Canonical(); g != w || n != wantN {
					t.Fatalf("%s %s blocks from %d: %d mappings, curve\n%s\nwant %d mappings, curve\n%s",
						e, opts.Canonical(), floor, n, g, wantN, w)
				}
			}
		}
	}
}

// relabel returns e with every rank renamed and the ranks listed in the
// order e.Ranks[order[0]], e.Ranks[order[1]], ...
func relabel(e *einsum.Einsum, order []int) *einsum.Einsum {
	name := func(r string) string { return "x" + r }
	out := *e
	out.Ranks = nil
	for _, i := range order {
		out.Ranks = append(out.Ranks, einsum.Rank{Name: name(e.Ranks[i].Name), Shape: e.Ranks[i].Shape})
	}
	out.Tensors = slices.Clone(e.Tensors)
	for i := range out.Tensors {
		t := &out.Tensors[i]
		t.Dims = slices.Clone(t.Dims)
		for j := range t.Dims {
			d := &t.Dims[j]
			d.Terms = slices.Clone(d.Terms)
			for k := range d.Terms {
				d.Terms[k].Rank = name(d.Terms[k].Rank)
			}
		}
	}
	return &out
}
